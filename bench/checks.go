package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"qosneg/internal/core"
)

// Validity limits of the open-loop generator: beyond them the run measured
// the generator, not the system. The lateness limit is half the admitted
// median, not the 1ms first proposed: generator and system share a process,
// and during each concurrent GC mark (5–8ms, four times a second) idle mark
// workers hold the idle P the waking dispatcher needs, which alone puts p99
// at 2–3ms on two cores while p95 stays near 0.15ms.
const (
	maxSchedLagP99 = 5 * time.Millisecond
	maxDropRatio   = 0.01
)

// sampleOf keeps what the cache-off comparison needs of one result.
func sampleOf(op int, res core.Result) coldSample {
	// Marshal of a plain profile struct cannot fail.
	offer, _ := json.Marshal(res.Offer)
	return coldSample{op: op, status: res.Status, key: res.Session.Current.Key(), offer: offer}
}

// windDown ends every session the measured phase left standing, closes the
// daemon and checks that nothing is still held.
func windDown(s *sut, rep *report) {
	for _, id := range s.live {
		if err := s.Manager.Complete(id); err != nil {
			rep.check("wind-down", false, "complete session %d: %v", id, err)
		}
	}
	s.live = nil
	// A negotiation whose client gave up can still be completing its
	// reservation server-side; sweep until the ledger settles.
	deadline := time.Now().Add(10 * time.Second)
	var err error
	for {
		for _, sess := range s.Manager.Sessions(core.Reserved) {
			// Losing the race to a concurrent expiry is fine; the ledger
			// check below is the verdict.
			_ = s.Manager.Reject(sess.ID)
		}
		if err = s.Ledger.CheckEmpty(); err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.close()
	rep.check("ledger-empty", err == nil, "%v", err)
	if s.ctrl != nil {
		inflight := s.ctrl.Stats().InFlight
		rep.check("admission-idle", inflight == 0, "%d negotiations still admitted at end", inflight)
	}
}

// verify runs the output checks that read the tally.
func verify(w *workloadDef, in *inputs, st *stream, t *tally, rep *report) {
	rep.check("status-histogram", reflect.DeepEqual(t.observed, t.expected),
		"observed %v, the seed predicts %v", t.observed, t.expected)
	rep.check("ops-succeeded", t.failed == 0, "%d of %d ops failed", t.failed, t.attempted)
	switch w.name {
	case "cold-catalog":
		mismatches, err := replayCacheOff(in, st, t.samples)
		rep.check("cache-off-identical", err == nil && mismatches == 0,
			"%d of %d sampled requests differ from the cache-off manager (%v)", mismatches, len(t.samples), err)
	case "overload-openloop":
		rep.check("overload-sheds", t.sheds > 0, "%d arrivals at %.0f/s produced no shed", t.attempted, overloadRate)
		rep.check("shed-retry-after", t.badHints == 0, "%d sheds carried no positive RetryAfter", t.badHints)
	case "adapt-storm":
		rep.check("storm-adapted", t.transitions > 0, "no session ever adapted")
	}
}

// validate marks the run invalid when the open-loop generator, over all
// epochs, missed its own schedule. A late or dropping generator does not
// make the system's answers wrong; it makes the run's numbers the
// generator's. The run says so, the outputs still count as checked.
func validate(t *tally, rep *report) {
	if lag := quantile(sortDurations(t.lag), 0.99); lag > maxSchedLagP99 {
		rep.invalid("generator lateness p99 %v exceeds %v", lag, maxSchedLagP99)
	}
	if float64(t.drops) > maxDropRatio*float64(t.attempted) {
		rep.invalid("%d of %d arrivals dropped at the outstanding cap", t.drops, t.attempted)
	}
}

// replayCacheOff re-runs the sampled cold-catalog requests, in order and
// with the run's writes applied at the same points, against a manager with
// the offer cache disabled and counts those whose status, committed offer
// or user offer differ byte for byte.
func replayCacheOff(in *inputs, st *stream, samples []coldSample) (int, error) {
	ref, err := assemble(in, stack{cacheOff: true})
	if err != nil {
		return 0, err
	}
	writes, mismatches := st.writes, 0
	for _, sm := range samples {
		for len(writes) > 0 && writes[0].at <= sm.op {
			if err := ref.apply(in, writes[0]); err != nil {
				return mismatches, err
			}
			writes = writes[1:]
		}
		q := st.reqs[sm.op]
		res, err := ref.NegotiateWith(context.Background(), ref.machines[q.client], in.ids[q.doc], in.profiles[q.profile])
		if err != nil {
			return mismatches, fmt.Errorf("op %d: %w", sm.op, err)
		}
		if res.Session == nil {
			mismatches++
			continue
		}
		got := sampleOf(sm.op, res)
		if got.status != sm.status || got.key != sm.key || !bytes.Equal(got.offer, sm.offer) {
			mismatches++
		}
		if err := ref.Manager.Reject(res.Session.ID); err != nil {
			return mismatches, err
		}
	}
	return mismatches, nil
}

// loadgenMetrics reports what the generator knows about its own samples.
func loadgenMetrics(m metrics, t *tally) {
	m["loadgen.negotiate_p99_us"] = us(quantile(t.lat, 0.99))
	m["loadgen.negotiate_p999_us"] = us(quantile(t.lat, 0.999))
	m["loadgen.samples"] = float64(len(t.lat))
	m["loadgen.sched_lag_p99_us"] = us(quantile(sortDurations(t.lag), 0.99))
	m["loadgen.dropped"] = float64(t.drops)
	m["loadgen.ops_attempted"] = float64(t.attempted)
	m["loadgen.failed_ops_ratio"] = float64(t.failed) / float64(max(t.attempted, 1))
	m["adapt_p50_us"] = us(quantile(sortDurations(t.adapt), 0.50))
	m["adapt_p90_us"] = us(quantile(t.adapt, 0.90))
	m["protocol.shed_reply_us"] = us(quantile(sortDurations(t.shedReply), 0.50))
}

// layerCounters reads the counts the layers publish through their Stats.
func layerCounters(m metrics, s *sut, t *tally) {
	st := s.Manager.Stats()
	if lookups := st.OfferCacheHits + st.OfferCacheMisses; lookups > 0 {
		m["offercache.hit_ratio"] = float64(st.OfferCacheHits) / float64(lookups)
	}
	m["offercache.invalidations"] = float64(st.OfferCacheInvalidations)
	m["offercache.entries"] = float64(st.OfferCacheEntries)
	if commits := st.Succeeded + st.FailedWithOffer + st.Adaptations; commits > 0 {
		failures := st.CommitServerDown + st.CommitCapacity + st.CommitConstraint
		m["core.commit_attempts_per_success"] = float64(commits+failures) / float64(commits)
	}
	m["adaptation.transitions"] = float64(st.Adaptations)
	m["adaptation.failed"] = float64(st.AdaptationFailures)
	m["ledger.open_at_end"] = float64(s.Ledger.Open())
	if s.ctrl != nil {
		as := s.ctrl.Stats()
		m["admission.admitted"] = float64(as.Admitted)
		m["admission.shed"] = float64(as.Sheds)
		if total := as.Admitted + as.Sheds; total > 0 {
			m["admission.shed_ratio"] = float64(as.Sheds) / float64(total)
		}
		m["admission.limit_final"] = float64(as.Limit)
		m["admission.retry_hint_ms"] = float64(as.RetryHint) / float64(time.Millisecond)
	}
	if s.Fleet != nil {
		var lo, hi, sum int
		for i, sh := range s.Fleet.ShardStats() {
			m["shard.bus_lag_max"] = max(m["shard.bus_lag_max"], float64(sh.BusLag))
			n := sh.Stats.Requests
			if i == 0 || n < lo {
				lo = n
			}
			hi = max(hi, n)
			sum += n
		}
		if sum > 0 {
			m["shard.session_imbalance"] = float64(hi-lo) * float64(s.Fleet.Shards()) / float64(sum)
		}
	}
	for _, c := range s.clients {
		m["protocol.redials"] += float64(c.Redials())
	}
	m["adaptation.scan_us"] = us(quantile(sortDurations(t.scan), 0.50))
}
