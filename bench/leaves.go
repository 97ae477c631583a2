package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
	"qosneg/internal/offercache"
	"qosneg/internal/profile"
	"qosneg/internal/registry"
	"qosneg/internal/telemetry"
)

// leaves calls the layers under the manager directly, with the replayed
// request's own inputs, on objects the benchmark owns. Layers the workload's
// stack does not contain are not measured and read 0.
type leaves struct {
	plain  *system
	traced *tracedManager
	rec    *recorder

	cache    *offercache.Cache
	registry *registry.Registry
	ledger   *ledger.Ledger
	ctrl     *admission.Controller
	metrics  *telemetry.Registry
	hist     *telemetry.Histogram
	ring     *telemetry.Ring
	fleet    *system

	// offers and classifyAllocs hold, per replayed request, the size of
	// the candidate product and the mallocs of classifying it.
	offers         []int
	classifyAllocs []uint64
}

func newLeaves(st stack, plain *system, traced *tracedManager, rec *recorder) *leaves {
	lf := &leaves{
		plain: plain, traced: traced, rec: rec,
		cache:    offercache.New(0),
		registry: registry.New(),
		ledger:   ledger.New(),
	}
	if st.admission {
		lf.ctrl = admission.New(admission.Config{SLO: admissionSLO, MaxInFlight: admissionSlots, MinInFlight: 1})
	}
	if st.telemetry {
		lf.metrics = telemetry.NewRegistry()
		lf.hist = lf.metrics.Histogram("bench_observe_seconds", "bench-owned histogram", telemetry.LatencyBuckets)
		lf.ring = telemetry.NewRing(traceDepth)
	}
	return lf
}

// measure runs the direct calls for the n-th replayed request.
func (lf *leaves) measure(n int, mach client.Machine, doc media.Document, u profile.UserProfile) error {
	ctx, rec := context.Background(), lf.rec
	pricing, g := lf.plain.Pricing, u.Desired.Cost.Guarantee

	// registry: the snapshot every negotiation starts from, and a write.
	rec.batch("registry.snapshot", leafBatch, func() { _, _, _ = lf.plain.Registry.Snapshot(doc.ID) })
	var err error
	rec.call("registry.add", func() { err = lf.registry.Add(doc) })
	if err != nil {
		return err
	}

	// offer: step 2 with the §6 mapping and §7 pricing, then the fused
	// classification of steps 2–4 over the candidates.
	var cands offer.Candidates
	rec.call("offer.filter", func() { cands, err = offer.Filter(ctx, doc, mach, pricing, g, runtime.GOMAXPROCS(0), nil) })
	if err != nil {
		// The request's machine cannot decode the document at all: the
		// manager answers FAILEDWITHOUTOFFER before any layer below runs.
		return nil
	}
	// The manager's own defaults: worker count, enumeration bound, top-K.
	maxOffers := core.DefaultOptions().MaxOffers
	prebuilt, err := offer.FromCandidates(doc, cands, maxOffers)
	if err != nil {
		return err
	}
	opts := offer.PipelineOptions{MaxOffers: maxOffers, TopK: core.DefaultTopK, Prebuilt: prebuilt}
	rec.call("offer.classify", func() { _, err = offer.TopKFromCandidates(ctx, doc, cands, u, opts) })
	if err != nil {
		return err
	}
	// Counted on a second call: reading the exact malloc counter stops the
	// world, which a timed call of ten microseconds would feel.
	before := mallocs()
	_, _ = offer.TopKFromCandidates(ctx, doc, cands, u, opts)
	lf.classifyAllocs = append(lf.classifyAllocs, mallocs()-before)
	lf.offers = append(lf.offers, cands.Offers())

	// offercache: the workload's own keys against a bench-owned cache of
	// the default size; the probe is timed on the entry just stored.
	key := offercache.Key{Doc: doc.ID, Machine: mach.Fingerprint(), Guarantee: g, Exclusion: offercache.ExclusionHash(nil)}
	rec.batch("offercache.store", 4, func() { lf.cache.Store(key, 1, 1, cands, prebuilt) })
	rec.batch("offercache.lookup", leafBatch, func() { lf.cache.Lookup(key, 1, 1) })

	// cost, network, ledger: what step 5 does per stream. (cmfs and
	// transport are timed by the decorators on the traced manager.)
	var items []cost.Item
	var stream media.Variant
	for _, mono := range doc.Continuous() {
		v := mono.Variants[0]
		items = append(items, cost.Item{Rate: v.NetworkQoS().AvgBitRate, Duration: mono.Duration})
		stream = v
	}
	rec.batch("cost.document", leafBatch, func() { pricing.Document(cost.Money(doc.CopyrightFee), g, items) })
	if len(items) > 0 {
		if err := lf.network(mach, stream); err != nil {
			return err
		}
	}
	rec.batch("ledger.acquire_release", leafBatch, func() {
		lf.ledger.Acquire(ledger.KindCMFS, "bench", 1)
		lf.ledger.Release(ledger.KindCMFS, "bench", 1)
	})

	if lf.ctrl != nil {
		rec.batch("admission.admit", leafBatch, func() {
			if release, _, ok := lf.ctrl.Admit(); ok {
				release()
			}
		})
	}
	if lf.metrics != nil {
		rec.batch("telemetry.observe", leafBatch, func() { lf.hist.Observe(137 * time.Microsecond) })
		rec.batch("telemetry.trace", leafBatch, func() { lf.ring.Trace(telemetry.Event{Step: telemetry.StepCommitment, Elapsed: time.Microsecond}) })
		rec.call("telemetry.snapshot", func() { lf.metrics.Snapshot() })
	}
	// The session lifecycle and a catalog write across the fleet are dearer
	// and disturb the rungs' caches: every fourth replayed request.
	if n%4 != 0 {
		return nil
	}
	if err := lf.lifecycle(mach, doc.ID, u); err != nil {
		return err
	}
	if lf.fleet != nil {
		rec.call("shard.sync", func() {
			err = lf.fleet.Registry.Add(doc)
			lf.fleet.Fleet.Sync()
		})
	}
	return err
}

// network times path search, reservation and release for one stream from
// its server to the request's client on the traced manager's network.
func (lf *leaves) network(mach client.Machine, v media.Variant) error {
	net, q := lf.traced.network, v.NetworkQoS()
	src := network.NodeID(v.Server)
	var paths []network.Path
	var err error
	lf.rec.batch("network.findpaths", 4, func() { paths, err = net.FindPaths(src, mach.Node, q, 3) })
	if err != nil || len(paths) == 0 {
		return fmt.Errorf("network.FindPaths %s -> %s: %v", src, mach.Node, err)
	}
	var res network.Reservation
	lf.rec.call("network.reserve", func() { res, err = net.Reserve(paths[0], q) })
	if err != nil {
		return err
	}
	lf.rec.call("network.release", func() { err = net.Release(res.ID) })
	return err
}

// lifecycle times the session operations beyond negotiate and reject on the
// bare manager: confirm, an adaptation away from a degraded server, complete.
func (lf *leaves) lifecycle(mach client.Machine, doc media.DocumentID, u profile.UserProfile) error {
	man, rec := lf.plain.Manager, lf.rec
	res, err := man.NegotiateContext(context.Background(), mach, doc, u)
	if err != nil || res.Session == nil {
		return err
	}
	id := res.Session.ID
	rec.call("core.confirm", func() { err = man.Confirm(id) })
	if err != nil {
		return err
	}
	if victim := lf.plain.Servers[res.Session.Current.Choices[0].Variant.Server]; victim != nil {
		if err := victim.SetDegradation(stormDegradation); err != nil {
			return err
		}
		// An adaptation that finds no alternate aborts the session; both
		// outcomes are the procedure's cost.
		var aerr error
		rec.call("core.adapt", func() { _, aerr = man.Adapt(id) })
		if err := victim.SetDegradation(0); err != nil {
			return err
		}
		if aerr != nil {
			return nil
		}
	}
	rec.call("core.complete", func() { err = man.Complete(id) })
	return err
}

// report adds what the direct calls counted; their timings reach the
// metrics through the recorder's spans.
func (lf *leaves) report(m metrics) {
	m["offer.offers_per_request"] = float64(median(lf.offers))
	if offers := m["offer.offers_per_request"]; offers > 0 {
		m["offer.classify_ns_per_offer"] = ns(lf.rec.median("offer.classify")) / offers
	}
	m["offer.allocs_per_classify"] = float64(median(lf.classifyAllocs))
}
