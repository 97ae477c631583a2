package core_test

import (
	"testing"

	"qosneg/internal/admission"
	"qosneg/internal/core"
	"qosneg/internal/faults"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
)

// chaosShards is the fleet size the concurrency harnesses run on.
const chaosShards = 4

// chaosFleet assembles the harnesses' bed: a 4-shard fleet over the
// fault-wrapped substrate, gated by an admission controller of slots
// concurrent negotiations, with the manager, the controller and the ledger
// instrumented on reg. It returns the bed, the controller and the shards'
// managers, whose test hooks and indexes the harnesses reach directly.
func chaosFleet(inj *faults.Injector, opts core.Options, reg *telemetry.Registry, slots int) (*testbed.Bed, *admission.Controller, []*core.Manager) {
	opts.Metrics = reg
	ctrl := admission.New(admission.Config{MaxInFlight: slots, MinInFlight: slots})
	bed := testbed.MustNew(testbed.Spec{Shards: chaosShards, Faults: inj, Options: &opts, Admission: ctrl})
	ctrl.Instrument(reg)
	bed.Ledger.Instrument(reg)
	shards := make([]*core.Manager, chaosShards)
	for i := range shards {
		shards[i] = bed.Fleet.Shard(i)
	}
	return bed, ctrl, shards
}

// checkOneCountPerFact holds the fleet's Stats to its metric series at
// quiescence: each fact is counted once, so every Stats field equals the
// series that exposes it; the router's sheds are the controller's count and
// are among the FAILEDTRYLATER outcomes; and the breaker gauges, which the
// shards share, read each server's table row once.
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
	// No negotiation in the harnesses is canceled, so every request ended
	// in exactly one outcome.
	if st.Requests != outcomes {
		t.Errorf("seed %d: Stats.Requests = %d, outcomes sum to %d", seed, st.Requests, outcomes)
	}
	if sheds := int(ctrl.Stats().Sheds); st.AdmissionSheds != sheds {
		t.Errorf("seed %d: Stats.AdmissionSheds = %d, the controller shed %d", seed, st.AdmissionSheds, sheds)
	}
	if st.FailedTryLater < st.AdmissionSheds {
		t.Errorf("seed %d: %d FAILEDTRYLATER outcomes, fewer than the %d sheds among them", seed, st.FailedTryLater, st.AdmissionSheds)
	}
	for _, row := range bed.Fleet.Shard(0).ServerLoads() {
		if got := gauge(core.MetricConsecutive, string(row.ID)); got != row.ConsecutiveFailures {
			t.Errorf("seed %d: %s{server=%s} = %d, the server table reads %d", seed, core.MetricConsecutive, row.ID, got, row.ConsecutiveFailures)
		}
		if got := gauge(core.MetricQuarantined, string(row.ID)); row.Quarantined && got == 0 {
			t.Errorf("seed %d: %s{server=%s} = %d for a quarantined server", seed, core.MetricQuarantined, row.ID, got)
		}
	}
}
