// The parallel negotiation pipeline: steps 2–4 of the Section 4 procedure
// (static compatibility checking, computation of classification parameters,
// classification) as a streaming fan-out instead of materialize-then-sort.
//
// Stage 1 filters each monomedia's variants (inline: a filter pass is
// shorter than a goroutine hand-off) and precomputes, per surviving
// candidate, the Section 6 network mapping, the Section 7 stream price and
// the profile-dependent classification stats. Stage 2
// splits the cartesian product of candidates into contiguous index ranges,
// one per worker in a bounded pool; each worker streams its range, scores
// offers from the per-candidate stats in O(#monomedia) additions, and
// feeds a private top-K collector. Stage 3 merges the collectors into the
// classified, bounded offer list the resource-commitment step consumes.
package offer

import (
	"context"
	"runtime"
	"sync"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
)

// PipelineOptions tunes EnumerateTopK.
type PipelineOptions struct {
	// MaxOffers bounds the cartesian product; 0 selects 1<<20.
	MaxOffers int
	// Guarantee selects the service guarantee priced into each offer.
	Guarantee cost.Guarantee
	// Workers bounds the scoring fan-out over products of smallProduct
	// offers or more; 0 selects GOMAXPROCS.
	Workers int
	// TopK bounds how many classified offers are kept; 0 keeps all.
	TopK int
	// Orderer is the classification ordering; nil selects SNSPrimary.
	Orderer Orderer
	// Exclude, when non-nil, drops variants for which it returns true
	// before the product is built (the QoS manager's server quarantine).
	Exclude func(media.Variant) bool
	// Prebuilt, when non-nil, is the materialized cartesian product of the
	// candidate set in lexicographic (Walk) order — FromCandidates' output,
	// typically memoized by the offer cache. Scoring then reuses Prebuilt[n]
	// instead of materializing offer n, which removes the per-offer
	// allocation work from cache-hot negotiations. The offers are shared by
	// reference and must be treated as immutable.
	Prebuilt []SystemOffer
}

// candidateStats is the profile-dependent half of a candidate's
// classification parameters, computed once per candidate so that scoring an
// offer is a sum of per-candidate terms.
type candidateStats struct {
	// qImp is the candidate's QoS-importance contribution to the OIF.
	qImp float64
	// desired and worst report whether the candidate satisfies the
	// profile's desired / worst-acceptable setting for its media kind.
	desired, worst bool
}

// rankCandidates precomputes candidateStats for every candidate, mirroring
// SNS's per-choice comparisons and Rank's importance sum. The per-monomedia
// rows are windows of one slab.
func rankCandidates(cands Candidates, u profile.UserProfile) [][]candidateStats {
	n := 0
	for _, mono := range cands {
		n += len(mono)
	}
	stats := make([][]candidateStats, len(cands))
	slab := make([]candidateStats, n)
	for i, mono := range cands {
		stats[i], slab = slab[:len(mono):len(mono)], slab[len(mono):]
		for j, c := range mono {
			st := candidateStats{qImp: u.Importance.QoS(c.Variant.QoS)}
			if kind, ok := c.Variant.QoS.Kind(); ok {
				st.desired, st.worst = true, true
				if des, ok := u.Desired.Setting(kind); ok && !c.Variant.QoS.Satisfies(des) {
					st.desired = false
				}
				if wor, ok := u.Worst.Setting(kind); ok && !c.Variant.QoS.Satisfies(wor) {
					st.worst = false
				}
			}
			stats[i][j] = st
		}
	}
	return stats
}

// collectRange streams the offers with lexicographic numbers [lo, hi) into
// the collector, scoring each from the precomputed stats and materializing
// only offers that can still enter the top K. It checks ctx periodically
// and returns its error when canceled.
func collectRange(ctx context.Context, doc media.Document, cands Candidates, stats [][]candidateStats, prebuilt []SystemOffer, u profile.UserProfile, orderer Orderer, tk *TopK, lo, hi int) error {
	if lo >= hi {
		return nil
	}
	copyright := cost.Money(doc.CopyrightFee)
	budget := u.Desired.Cost.MaxCost
	idx := make([]int, len(cands))
	decodeIndex(idx, cands, lo)
	// One probe offer for the whole range: it escapes through Orderer.Less,
	// so a per-offer probe would allocate per scored offer.
	var probeOffer SystemOffer
	for n := lo; n < hi; n++ {
		if n%1024 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		total := copyright
		qImp := 0.0
		meetsDesired, meetsWorst := true, true
		for i, j := range idx {
			c := &cands[i][j]
			if c.Continuous {
				total += c.NetworkCost + c.ServerCost
			}
			st := &stats[i][j]
			qImp += st.qImp
			meetsDesired = meetsDesired && st.desired
			meetsWorst = meetsWorst && st.worst
		}
		status := Constraint
		switch {
		case meetsDesired && total <= budget:
			status = Desirable
		case meetsWorst:
			status = Acceptable
		}
		oif := qImp - u.Importance.Cost(total)
		// Probe admission before materializing: the keyless probe wins
		// every key tie-break, so the skip only fires when the worst
		// kept offer beats the probe on the numeric keys alone —
		// skipping is conservative.
		probeOffer.Cost.Total = total
		probe := Ranked{SystemOffer: &probeOffer, Status: status, OIF: oif, QoSImportance: qImp}
		if !tk.Full() || !orderer.Less(tk.Worst(), probe) {
			var o *SystemOffer
			if prebuilt != nil {
				o = &prebuilt[n]
			} else {
				built := buildOffer(doc, cands, idx, copyright)
				o = &built
			}
			probe.SystemOffer = o
			tk.Add(probe)
		}
		advanceIndex(idx, cands)
	}
	return nil
}

// smallProduct is the offer count below which the fan-out overhead exceeds
// the scoring work and the pipeline runs on the calling goroutine.
const smallProduct = 2048

// EnumerateTopK runs negotiation steps 2–4 as the parallel streaming
// pipeline described at the top of this file and returns the K best
// classified offers, best-first. With TopK <= 0 it returns the full
// classified set (identical to Enumerate + Rank + Sort); with a bound it
// returns exactly the prefix that full classification would have produced,
// because the built-in orderers are total orders.
//
// Errors: *NoVariantError (some monomedia undecodable), ErrTooManyOffers
// (product above MaxOffers), or ctx's error when canceled mid-stream.
func EnumerateTopK(ctx context.Context, doc media.Document, mach client.Machine, pricing cost.Pricing, u profile.UserProfile, opts PipelineOptions) ([]Ranked, error) {
	cands, err := Filter(ctx, doc, mach, pricing, opts.Guarantee, 0, opts.Exclude)
	if err != nil {
		return nil, err
	}
	return TopKFromCandidates(ctx, doc, cands, u, opts)
}

// topKPool recycles collectors across negotiations. A collector's backing
// array survives Put/Get, so a steady-state workload with a stable TopK bound
// stops allocating heaps entirely.
var topKPool = sync.Pool{New: func() any { return new(TopK) }}

func getTopK(k int, o Orderer, capHint int) *TopK {
	t := topKPool.Get().(*TopK)
	t.Reset(k, o, capHint)
	return t
}

// TopKFromCandidates runs stages 2–3 of the pipeline — scoring and bounded
// classification — on an already-filtered candidate set: EnumerateTopK minus
// the step-2 filter. This is the entry point the offer cache feeds memoized
// candidates into; opts.Exclude is ignored (exclusion is part of the cache
// key and was applied when the candidates were built).
func TopKFromCandidates(ctx context.Context, doc media.Document, cands Candidates, u profile.UserProfile, opts PipelineOptions) ([]Ranked, error) {
	orderer := opts.Orderer
	if orderer == nil {
		orderer = SNSPrimary{}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total, err := checkProduct(doc, cands, maxOffersOrDefault(opts.MaxOffers))
	if err != nil {
		return nil, err
	}
	stats := rankCandidates(cands, u)

	if total < smallProduct || workers == 1 {
		tk := getTopK(opts.TopK, orderer, total)
		if err := collectRange(ctx, doc, cands, stats, opts.Prebuilt, u, orderer, tk, 0, total); err != nil {
			topKPool.Put(tk)
			return nil, err
		}
		out := tk.Sorted()
		topKPool.Put(tk)
		return out, nil
	}

	collectors := make([]*TopK, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := total*w/workers, total*(w+1)/workers
		collectors[w] = getTopK(opts.TopK, orderer, hi-lo)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = collectRange(ctx, doc, cands, stats, opts.Prebuilt, u, orderer, collectors[w], lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, tk := range collectors {
				topKPool.Put(tk)
			}
			return nil, err
		}
	}
	merged := collectors[0]
	for _, tk := range collectors[1:] {
		merged.Merge(tk)
		topKPool.Put(tk)
	}
	out := merged.Sorted()
	topKPool.Put(merged)
	return out, nil
}
