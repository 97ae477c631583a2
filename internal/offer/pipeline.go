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
	// Prebuilt is ignored; it stays until ROADMAP item 7a drops the
	// benchmark's use of it.
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

// stackWidth is how many monomedia the walk keeps its multi-index and
// stats rows for on the stack.
const stackWidth = 8

// rankCandidates precomputes candidateStats for every candidate, mirroring
// SNS's per-choice comparisons and Rank's importance sum: rows of windows of
// one slab, in rows' array when it is long enough.
func rankCandidates(cands Candidates, u *profile.UserProfile, rows [][]candidateStats) [][]candidateStats {
	n := 0
	for _, mono := range cands {
		n += len(mono)
	}
	stats := rows[:0]
	if cap(stats) < len(cands) {
		stats = make([][]candidateStats, 0, len(cands))
	}
	slab := make([]candidateStats, n)
	for _, mono := range cands {
		row := slab[:len(mono):len(mono)]
		slab = slab[len(mono):]
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
			row[j] = st
		}
		stats = append(stats, row)
	}
	return stats
}

// TopKFromCandidates runs negotiation steps 3–4 — scoring and bounded
// classification — on a filtered candidate set (Filter's output, possibly
// memoized by the offer cache) and returns the K best classified offers as
// a view that orders them on demand. With TopK <= 0 the view's All is the
// full classified set (identical to FromCandidates + Rank + Sort); with a
// bound it is exactly the prefix that full classification would have
// produced, because the orderers are total orders.
//
// The walk scores every offer and builds nothing for it. Only an offer that
// passes the numeric probe is written, into a spare slot; the offer the
// collector then drops (TopK.Add) gives its slot to the next one. So the
// view owns min(K+1, product) slots, or one per offer without a bound.
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
	var rows [stackWidth][]candidateStats
	stats := rankCandidates(cands, &u, rows[:])
	var tk TopK
	tk.Reset(opts.TopK, orderer, total)
	nslots := total
	if opts.TopK > 0 && opts.TopK < total {
		nslots = opts.TopK + 1
	}
	// One slot more for the keyless probe, which escapes through
	// Orderer.Less: one of its own would be an allocation.
	slots := newSlots(&doc, cands, nslots+1)
	probeOffer := &slots[nslots]
	*probeOffer = SystemOffer{}
	var spare *SystemOffer

	copyright := cost.Money(doc.CopyrightFee)
	budget := u.Desired.Cost.MaxCost
	var idxBuf [stackWidth]int
	idx := idxBuf[:]
	if len(cands) > stackWidth {
		idx = make([]int, len(cands))
	}
	idx = idx[:len(cands)]
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
		// Probe admission before writing: the keyless probe wins every key
		// tie-break, so the skip only fires when the worst kept offer beats
		// the probe on the numeric keys alone — skipping is conservative.
		probeOffer.Cost.Total = sum
		probe := Ranked{SystemOffer: probeOffer, Status: status, OIF: oif, QoSImportance: qImp}
		if !tk.Full() || !orderer.Less(tk.Worst(), probe) {
			if spare == nil {
				spare, slots = &slots[0], slots[1:]
			}
			writeOffer(spare, cands, idx)
			probe.SystemOffer = spare
			spare = tk.Add(probe)
		}
		advanceIndex(idx, cands)
	}
	return tk.Classified(), nil
}
