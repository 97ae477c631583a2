package core_test

import (
	"reflect"
	"testing"

	"qosneg/internal/admission"
	"qosneg/internal/core"
	"qosneg/internal/faults"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
)

// chaosBed assembles the harnesses' bed: a manager over the fault-wrapped
// substrate, gated by an admission controller of slots concurrent
// negotiations, with the manager, the controller and the ledger
// instrumented on reg. It returns the bed and the controller.
func chaosBed(inj *faults.Injector, opts core.Options, reg *telemetry.Registry, slots int) (*testbed.Bed, *admission.Controller) {
	opts.Metrics = reg
	opts.Admission = admission.New(admission.Config{MaxInFlight: slots, MinInFlight: slots})
	bed := testbed.MustNew(testbed.Spec{Faults: inj, Options: &opts})
	opts.Admission.Instrument(reg)
	bed.Ledger.Instrument(reg)
	return bed, opts.Admission
}

// checkOneCountPerFact holds the manager's Stats to its metric series at
// quiescence: each fact is counted once, so every Stats field equals the
// series that exposes it, and a second read equals the first; the sheds are
// the controller's count and are among the FAILEDTRYLATER outcomes; a
// breaker trip is one fact, so the server table's rows sum to the trips
// Stats counts; and the breaker gauges read each server's table row once.
func checkOneCountPerFact(t *testing.T, seed int64, bed *testbed.Bed, ctrl *admission.Controller, reg *telemetry.Registry) {
	t.Helper()
	st := bed.Manager.Stats()
	snap := reg.Snapshot()
	counter := func(name, label string) int { return int(snap.CounterValue(name, label)) }
	gauge := func(name, server string) int {
		for _, g := range snap.Gauges {
			if g.Name == name && g.Labels["server"] == server {
				return int(g.Value)
			}
		}
		return 0
	}
	for _, f := range []struct {
		field        string
		stat, series int
	}{
		{"Succeeded", st.Succeeded, counter(core.MetricNegotiations, core.Succeeded.String())},
		{"FailedWithOffer", st.FailedWithOffer, counter(core.MetricNegotiations, core.FailedWithOffer.String())},
		{"FailedTryLater", st.FailedTryLater, counter(core.MetricNegotiations, core.FailedTryLater.String())},
		{"FailedWithoutOffer", st.FailedWithoutOffer, counter(core.MetricNegotiations, core.FailedWithoutOffer.String())},
		{"FailedWithLocalOffer", st.FailedWithLocalOffer, counter(core.MetricNegotiations, core.FailedWithLocalOffer.String())},
		{"Adaptations", st.Adaptations, counter(core.MetricAdaptations, "ok")},
		{"AdaptationFailures", st.AdaptationFailures, counter(core.MetricAdaptations, "failed")},
		{"CommitServerDown", st.CommitServerDown, counter(core.MetricCommitFailures, core.CauseServerDown.String())},
		{"CommitCapacity", st.CommitCapacity, counter(core.MetricCommitFailures, core.CauseCapacity.String())},
		{"CommitConstraint", st.CommitConstraint, counter(core.MetricCommitFailures, core.CauseConstraint.String())},
		{"Quarantines", st.Quarantines, counter(core.MetricQuarantines, "")},
		{"StaleInstalls", st.StaleInstalls, counter(core.MetricStaleInstalls, "")},
		{"AdmissionSheds", st.AdmissionSheds, counter(admission.MetricSheds, "")},
		{"OfferCacheHits", st.OfferCacheHits, counter(core.MetricOfferCacheHits, "")},
		{"OfferCacheMisses", st.OfferCacheMisses, counter(core.MetricOfferCacheMisses, "")},
		{"OfferCacheInvalidations", st.OfferCacheInvalidations, counter(core.MetricOfferCacheInvalidations, "")},
		{"OfferCacheEntries", st.OfferCacheEntries, gauge(core.MetricOfferCacheEntries, "")},
		{"Revenue", int(st.Revenue), counter(core.MetricRevenue, "")},
	} {
		if f.stat != f.series {
			t.Errorf("seed %d: Stats.%s = %d, its series reads %d", seed, f.field, f.stat, f.series)
		}
	}
	outcomes := 0
	for _, s := range []core.NegotiationStatus{core.Succeeded, core.FailedWithOffer, core.FailedTryLater, core.FailedWithoutOffer, core.FailedWithLocalOffer} {
		outcomes += counter(core.MetricNegotiations, s.String())
	}
	// Every request ends in exactly one outcome, a shed included.
	if st.Requests != outcomes {
		t.Errorf("seed %d: Stats.Requests = %d, outcomes sum to %d", seed, st.Requests, outcomes)
	}
	if sheds := int(ctrl.Stats().Sheds); st.AdmissionSheds != sheds {
		t.Errorf("seed %d: Stats.AdmissionSheds = %d, the controller shed %d", seed, st.AdmissionSheds, sheds)
	}
	if st.FailedTryLater < st.AdmissionSheds {
		t.Errorf("seed %d: %d FAILEDTRYLATER outcomes, fewer than the %d sheds among them", seed, st.FailedTryLater, st.AdmissionSheds)
	}
	trips := 0
	for _, row := range bed.Manager.ServerLoads() {
		trips += row.Quarantines
		if got := gauge(core.MetricConsecutive, string(row.ID)); got != row.ConsecutiveFailures {
			t.Errorf("seed %d: %s{server=%s} = %d, the server table reads %d", seed, core.MetricConsecutive, row.ID, got, row.ConsecutiveFailures)
		}
		if got := gauge(core.MetricQuarantined, string(row.ID)); row.Quarantined && got == 0 {
			t.Errorf("seed %d: %s{server=%s} = %d for a quarantined server", seed, core.MetricQuarantined, row.ID, got)
		}
	}
	if trips != st.Quarantines {
		t.Errorf("seed %d: the server table records %d trips, Stats.Quarantines = %d", seed, trips, st.Quarantines)
	}
	if again := bed.Manager.Stats(); !reflect.DeepEqual(again, st) {
		t.Errorf("seed %d: Stats moved at quiescence:\n%+v\n%+v", seed, st, again)
	}
}
