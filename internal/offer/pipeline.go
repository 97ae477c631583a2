// The negotiation pipeline: steps 2–4 of the Section 4 procedure (static
// compatibility checking, computation of classification parameters,
// classification) as one streaming pass instead of materialize-then-sort.
//
// Filter (step 2) keeps each monomedia's decodable variants and precomputes,
// per surviving candidate, the Section 6 network mapping and the Section 7
// stream price. TopKFromCandidates precomputes the profile-dependent
// classification stats per candidate, walks the cartesian product of
// candidates once, scores each offer from the per-candidate stats in
// O(#monomedia) additions, and feeds a top-K collector. The collector's heap
// becomes the classified, bounded offer list the resource-commitment step
// reads, ordered only as far as that step reads it.
package offer

import (
	"context"

	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
)

// PipelineOptions tunes TopKFromCandidates.
type PipelineOptions struct {
	// MaxOffers bounds the cartesian product; 0 selects 1<<20.
	MaxOffers int
	// TopK bounds how many classified offers are kept; 0 keeps all.
	TopK int
	// Orderer is the classification ordering; nil selects SNSPrimary.
	Orderer Orderer
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
		for j := range mono {
			c := &mono[j]
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

// TopKFromCandidates runs negotiation steps 3–4 — scoring and bounded
// classification — on a filtered candidate set (Filter's output, possibly
// memoized by the offer cache) and returns the K best classified offers as
// a view that orders them on demand. With TopK <= 0 the view's All is the
// full classified set (identical to FromCandidates + Rank + Sort); with a
// bound it is exactly the prefix that full classification would have
// produced, because the orderers are total orders. Only offers that can
// still enter the top K are materialized.
//
// Errors: *NoVariantError (an empty candidate list), ErrTooManyOffers
// (product above MaxOffers), or ctx's error when canceled mid-stream; ctx is
// checked every 1024 offers.
func TopKFromCandidates(ctx context.Context, doc media.Document, cands Candidates, u profile.UserProfile, opts PipelineOptions) (Classified, error) {
	orderer := opts.Orderer
	if orderer == nil {
		orderer = SNSPrimary{}
	}
	total, err := checkProduct(doc, cands, maxOffersOrDefault(opts.MaxOffers))
	if err != nil {
		return Classified{}, err
	}
	stats := rankCandidates(cands, u)
	var tk TopK
	tk.Reset(opts.TopK, orderer, total)

	copyright := cost.Money(doc.CopyrightFee)
	budget := u.Desired.Cost.MaxCost
	idx := make([]int, len(cands))
	// One probe offer for the whole product: it escapes through Orderer.Less,
	// so a per-offer probe would allocate per scored offer.
	var probeOffer SystemOffer
	for n := 0; n < total; n++ {
		if n%1024 == 0 && ctx.Err() != nil {
			return Classified{}, ctx.Err()
		}
		sum := copyright
		qImp := 0.0
		meetsDesired, meetsWorst := true, true
		for i, j := range idx {
			c := &cands[i][j]
			if c.Continuous {
				sum += c.NetworkCost + c.ServerCost
			}
			st := &stats[i][j]
			qImp += st.qImp
			meetsDesired = meetsDesired && st.desired
			meetsWorst = meetsWorst && st.worst
		}
		status := Constraint
		switch {
		case meetsDesired && sum <= budget:
			status = Desirable
		case meetsWorst:
			status = Acceptable
		}
		oif := qImp - u.Importance.Cost(sum)
		// Probe admission before materializing: the keyless probe wins
		// every key tie-break, so the skip only fires when the worst
		// kept offer beats the probe on the numeric keys alone —
		// skipping is conservative.
		probeOffer.Cost.Total = sum
		probe := Ranked{SystemOffer: &probeOffer, Status: status, OIF: oif, QoSImportance: qImp}
		if !tk.Full() || !orderer.Less(tk.Worst(), probe) {
			var o *SystemOffer
			if opts.Prebuilt != nil {
				o = &opts.Prebuilt[n]
			} else {
				built := buildOffer(doc, cands, idx, copyright)
				o = &built
			}
			probe.SystemOffer = o
			tk.Add(probe)
		}
		advanceIndex(idx, cands)
	}
	return tk.Classified(), nil
}
