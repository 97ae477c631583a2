package offer

import (
	"context"
	"errors"
	"fmt"
	"strings"

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

// buildOffer materializes the system offer selected by the multi-index idx,
// assembling the cost breakdown from the candidates' precomputed prices.
func buildOffer(doc media.Document, cands Candidates, idx []int, copyright cost.Money) SystemOffer {
	o := SystemOffer{Document: doc.ID, Choices: make([]Choice, len(idx))}
	b := cost.Breakdown{Copyright: copyright, Total: copyright}
	var key strings.Builder
	for i, j := range idx {
		c := &cands[i][j]
		o.Choices[i] = Choice{Monomedia: doc.Monomedia[i].ID, Variant: &c.Variant}
		if i > 0 {
			key.WriteByte('+')
		}
		key.WriteString(string(c.Variant.ID))
		if c.Continuous {
			b.Network = append(b.Network, c.NetworkCost)
			b.Server = append(b.Server, c.ServerCost)
			b.Total += c.NetworkCost + c.ServerCost
		}
	}
	o.Cost = b
	// Fill the Key() cache here, where the choice order is already in hand:
	// the classification comparators tie-break on Key() and would otherwise
	// re-join the variant ids on every comparison.
	o.key = key.String()
	return o
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

// Walk streams every feasible system offer in lexicographic variant order,
// calling yield for each; enumeration stops early when yield returns false.
// Offers are materialized one at a time — nothing proportional to the
// product size is ever allocated, which is what lets the negotiation core
// process variant products near the enumeration limit without holding
// 2^20 offers in memory.
func Walk(doc media.Document, cands Candidates, yield func(SystemOffer) bool) {
	if len(cands) == 0 {
		return
	}
	copyright := cost.Money(doc.CopyrightFee)
	idx := make([]int, len(cands))
	for {
		if !yield(buildOffer(doc, cands, idx, copyright)) {
			return
		}
		if !advanceIndex(idx, cands) {
			return
		}
	}
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
// Filter and the streaming TopKFromCandidates instead and keeps only the
// offers that can still win classification.
func Enumerate(doc media.Document, m client.Machine, pricing cost.Pricing, opts EnumerateOptions) ([]SystemOffer, error) {
	cands, err := Filter(context.Background(), doc, m, pricing, opts.Guarantee, 0, opts.Exclude)
	if err != nil {
		return nil, err
	}
	return FromCandidates(doc, cands, opts.MaxOffers)
}

// FromCandidates materializes the feasible system offers from an
// already-filtered candidate set: Enumerate minus the step-2 filter. The
// offer cache hands memoized candidates straight here, skipping the
// per-request decode/map/price work entirely.
//
// The product is built in slabs — one array each for the offers, their
// choices, their per-stream cost lines and their keys, filled in one
// lexicographic walk — so it costs a handful of allocations whatever its
// size. Every slice handed out of a slab is cap-limited: appending to one
// offer's Choices or cost lines reallocates instead of writing into its
// neighbour. Offer for offer the result equals buildOffer's.
func FromCandidates(doc media.Document, cands Candidates, maxOffers int) ([]SystemOffer, error) {
	total, err := checkProduct(doc, cands, maxOffersOrDefault(maxOffers))
	if err != nil {
		return nil, err
	}
	n := len(cands)
	if n == 0 {
		return []SystemOffer{}, nil
	}
	// Candidate j of monomedia i appears in total/len(cands[i]) offers; size
	// the key and money slabs from what each one contributes.
	keyBytes, lines := total*(n-1), 0
	for _, mono := range cands {
		per := total / len(mono)
		for j := range mono {
			keyBytes += per * len(mono[j].Variant.ID)
			if mono[j].Continuous {
				lines += per
			}
		}
	}
	offers := make([]SystemOffer, total)
	choices := make([]Choice, total*n)
	// Network lines fill the first half of the money slab, server lines the
	// second, at the same offsets.
	money := make([]cost.Money, 2*lines)
	var keys strings.Builder
	keys.Grow(keyBytes) // exact: the buffer never moves under the substrings below
	copyright := cost.Money(doc.CopyrightFee)
	idx := make([]int, n)
	line := 0
	for o := range offers {
		b := cost.Breakdown{Copyright: copyright, Total: copyright}
		ch := choices[o*n : (o+1)*n : (o+1)*n]
		keyStart, first := keys.Len(), line
		for i, j := range idx {
			c := &cands[i][j]
			ch[i] = Choice{Monomedia: doc.Monomedia[i].ID, Variant: &c.Variant}
			if i > 0 {
				keys.WriteByte('+')
			}
			keys.WriteString(string(c.Variant.ID))
			if c.Continuous {
				money[line], money[lines+line] = c.NetworkCost, c.ServerCost
				b.Total += c.NetworkCost + c.ServerCost
				line++
			}
		}
		// An offer with no continuous stream keeps nil cost lines, as
		// buildOffer leaves them: the JSON encoding tells nil from empty.
		if line > first {
			b.Network = money[first:line:line]
			b.Server = money[lines+first : lines+line : lines+line]
		}
		offers[o] = SystemOffer{Document: doc.ID, Choices: ch, Cost: b, key: keys.String()[keyStart:]}
		advanceIndex(idx, cands)
	}
	return offers, nil
}
