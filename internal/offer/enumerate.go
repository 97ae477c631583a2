package offer

import (
	"context"
	"errors"
	"fmt"

	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/qos"
)

// ErrTooManyOffers is returned when the cartesian product of variants
// exceeds the enumeration limit.
var ErrTooManyOffers = errors.New("offer: too many feasible system offers")

// NoVariantError reports that a monomedia component has no variant the
// client machine can decode: the condition behind FAILEDWITHOUTOFFER
// ("no possible instantiation of the functional configuration to a
// physical configuration exists, e.g. the client machine does not support
// a suitable decoder").
//
// Excluded distinguishes the transient case: decodable variants existed
// but every one was dropped by the exclude filter (variants on quarantined
// servers), which callers map to FAILEDTRYLATER rather than
// FAILEDWITHOUTOFFER.
type NoVariantError struct {
	Monomedia media.MonomediaID
	Excluded  bool
}

func (e *NoVariantError) Error() string {
	if e.Excluded {
		return fmt.Sprintf("offer: every decodable variant for monomedia %s is excluded", e.Monomedia)
	}
	return fmt.Sprintf("offer: no decodable variant for monomedia %s", e.Monomedia)
}

// EnumerateOptions tunes Enumerate.
type EnumerateOptions struct {
	// MaxOffers bounds the cartesian product; 0 selects 1<<20.
	MaxOffers int
	// Guarantee selects the service guarantee priced into each offer.
	Guarantee cost.Guarantee
	// Exclude, when non-nil, drops variants for which it returns true
	// before the product is built (the QoS manager's server quarantine).
	Exclude func(media.Variant) bool
}

// Candidate is one decodable variant of a monomedia component, annotated
// with everything the enumeration pipeline needs per offer: the Section 6
// user-QoS → network-QoS mapping and the Section 7 cost of the variant's
// stream. Filtering computes these once per variant, so building one system
// offer out of candidates costs a few additions instead of repeated mapping
// and tariff lookups.
type Candidate struct {
	Variant media.Variant
	// Net is the variant's network QoS (Section 6 mapping).
	Net qos.NetworkQoS
	// NetworkCost and ServerCost price the variant's delivery (Section 7);
	// both are zero for discrete media, which are not billed.
	NetworkCost cost.Money
	ServerCost  cost.Money
	// Continuous marks billable continuous media.
	Continuous bool
}

// Candidates holds, per monomedia component of the document (in document
// order), the variants the client machine can decode: the outcome of
// negotiation step 2, static compatibility checking.
type Candidates [][]Candidate

// Offers returns the size of the cartesian product: how many feasible
// system offers enumeration would yield.
func (c Candidates) Offers() int {
	total := 1
	for _, m := range c {
		total *= len(m)
	}
	return total
}

// maxOffersOrDefault resolves the enumeration bound.
func maxOffersOrDefault(n int) int {
	if n <= 0 {
		return 1 << 20
	}
	return n
}

// Filter runs negotiation step 2 for every monomedia of the document:
// scalable variants expand into their decodable temporal layers (the INRS
// scalable decoder), each surviving layer is mapped to its network QoS and
// priced, and the per-monomedia candidate lists are returned in document
// order. The lists are cap-limited windows of one backing array.
//
// Filtering runs on the calling goroutine: a pass costs 1–40 µs on every
// document shape in the repository, less than starting and joining one
// goroutine per monomedia. The int parameter was that fan-out's worker
// count; it is ignored and stays in the signature for existing callers.
//
// It returns a *NoVariantError naming the first (in document order)
// monomedia with no decodable variant — with Excluded set when only the
// exclude filter emptied the list — and ctx's error if the context is
// already canceled.
func Filter(ctx context.Context, doc media.Document, m client.Machine, pricing cost.Pricing, g cost.Guarantee, _ int, exclude func(media.Variant) bool) (Candidates, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// Most variants survive and most are not scalable, so the variant count
	// is the right capacity; scalable expansion may still grow the array,
	// which leaves the windows already handed out on the old one, intact.
	variants := 0
	for _, mono := range doc.Monomedia {
		variants += len(mono.Variants)
	}
	cands := make(Candidates, len(doc.Monomedia))
	all := make([]Candidate, 0, variants)
	var single [1]media.Variant // a non-scalable variant's only layer, kept off the heap
	for i, mono := range doc.Monomedia {
		continuous := mono.Kind.Continuous()
		start, excluded := len(all), false
		for _, v := range mono.Variants {
			single[0] = v
			layers := single[:]
			if v.Scalable() {
				layers = media.ScalableLayers(v)
			}
			for _, layer := range layers {
				if !m.CanDecode(layer) {
					continue
				}
				if exclude != nil && exclude(layer) {
					excluded = true
					continue
				}
				c := Candidate{Variant: layer, Net: layer.NetworkQoS(), Continuous: continuous}
				if continuous {
					c.NetworkCost, c.ServerCost = pricing.ItemCost(g, cost.Item{
						Rate:     c.Net.AvgBitRate,
						Duration: mono.Duration,
					})
				}
				all = append(all, c)
			}
		}
		if len(all) == start {
			return nil, &NoVariantError{Monomedia: mono.ID, Excluded: excluded}
		}
		cands[i] = all[start:len(all):len(all)]
	}
	return cands, nil
}

// checkProduct verifies the cartesian product stays within maxOffers,
// mirroring the incremental overflow-safe check Enumerate always used, and
// that cands has one non-empty list per monomedia of the document.
func checkProduct(doc media.Document, cands Candidates, maxOffers int) (int, error) {
	if len(cands) != len(doc.Monomedia) {
		return 0, fmt.Errorf("offer: %d candidate lists for the %d monomedia of document %s", len(cands), len(doc.Monomedia), doc.ID)
	}
	total := 1
	for i, m := range cands {
		if len(m) == 0 {
			return 0, &NoVariantError{Monomedia: doc.Monomedia[i].ID}
		}
		if total > maxOffers/len(m) {
			return 0, fmt.Errorf("%w: product exceeds %d", ErrTooManyOffers, maxOffers)
		}
		total *= len(m)
	}
	return total, nil
}

// newSlots allocates n offer slots for the product: one array each for the
// offers, their choices and their cost lines, every window cap-limited so
// an append reallocates instead of writing into a neighbour. It writes what
// every offer of the product shares; writeOffer writes the rest. Filter
// marks a monomedia's candidates alike, so an offer has one cost line per
// continuous monomedia, and nil lines without one (JSON tells nil from []).
func newSlots(doc *media.Document, cands Candidates, n int) []SystemOffer {
	width, lines := len(cands), 0
	for _, mono := range cands {
		if mono[0].Continuous {
			lines++
		}
	}
	offers := make([]SystemOffer, n)
	choices := make([]Choice, n*width)
	// Network lines fill the first half, server lines the second.
	var money []cost.Money
	if lines > 0 {
		money = make([]cost.Money, 2*n*lines)
	}
	copyright := cost.Money(doc.CopyrightFee)
	for s := range offers {
		o := &offers[s]
		o.Document = doc.ID
		o.Choices = choices[s*width : (s+1)*width : (s+1)*width]
		for i := range o.Choices {
			o.Choices[i].Monomedia = doc.Monomedia[i].ID
		}
		o.Cost.Copyright = copyright
		if lines > 0 {
			net, srv := s*lines, (n+s)*lines
			o.Cost.Network = money[net : net+lines : net+lines]
			o.Cost.Server = money[srv : srv+lines : srv+lines]
		}
	}
	return offers
}

// writeOffer writes the offer the multi-index idx selects into a slot from
// newSlots, pricing it from the candidates. It is the one offer builder.
func writeOffer(o *SystemOffer, cands Candidates, idx []int) {
	total, line := o.Cost.Copyright, 0
	for i, j := range idx {
		c := &cands[i][j]
		o.Choices[i].Variant = &c.Variant
		if c.Continuous {
			o.Cost.Network[line], o.Cost.Server[line] = c.NetworkCost, c.ServerCost
			total += c.NetworkCost + c.ServerCost
			line++
		}
	}
	o.Cost.Total = total
}

// advanceIndex steps the multi-index to the next tuple in lexicographic
// order (last dimension fastest); it reports false after the last tuple.
func advanceIndex(idx []int, cands Candidates) bool {
	for i := len(idx) - 1; i >= 0; i-- {
		idx[i]++
		if idx[i] < len(cands[i]) {
			return true
		}
		idx[i] = 0
	}
	return false
}

// Enumerate produces every feasible system offer for the document on the
// given client machine: negotiation step 2 filters each monomedia's
// variants down to those the machine can decode and render, and the
// cartesian product of the survivors — one variant per monomedia — forms
// the feasible offers, each priced with the Section 7 cost model.
//
// It returns a *NoVariantError when some monomedia has no decodable
// variant, and ErrTooManyOffers when the product exceeds the limit.
//
// Enumerate materializes the whole product; the negotiation hot path uses
// Filter and the streaming TopKFromCandidates instead and builds only the
// offers that can still win classification.
func Enumerate(doc media.Document, m client.Machine, pricing cost.Pricing, opts EnumerateOptions) ([]SystemOffer, error) {
	cands, err := Filter(context.Background(), doc, m, pricing, opts.Guarantee, 0, opts.Exclude)
	if err != nil {
		return nil, err
	}
	return FromCandidates(doc, cands, opts.MaxOffers)
}

// FromCandidates materializes the feasible system offers from an
// already-filtered candidate set, in lexicographic variant order (last
// monomedia fastest): Enumerate minus the step-2 filter. The product is
// written into slots (newSlots), a handful of allocations whatever its
// size; every choice points at the Variant of the candidate it picked.
func FromCandidates(doc media.Document, cands Candidates, maxOffers int) ([]SystemOffer, error) {
	total, err := checkProduct(doc, cands, maxOffersOrDefault(maxOffers))
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return []SystemOffer{}, nil
	}
	offers := newSlots(&doc, cands, total)
	idx := make([]int, len(cands))
	for o := range offers {
		writeOffer(&offers[o], cands, idx)
		advanceIndex(idx, cands)
	}
	return offers, nil
}
