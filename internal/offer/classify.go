package offer

import (
	"sort"

	"qosneg/internal/cost"
	"qosneg/internal/profile"
)

// Ranked is a system offer annotated with its two classification parameters
// (negotiation step 3, "computation of classification parameters"). The offer
// is carried by reference: it is shared with whoever built it (the slots of
// the classification that kept it, which a memoized ranking shares with
// every session it is served to) and must be treated as immutable.
// The zero Ranked holds no offer; Key, Total and the other promoted methods
// must not be called on it.
type Ranked struct {
	*SystemOffer
	Status Status
	OIF    float64
	// QoSImportance is the QoS term of the OIF (before the cost
	// importance is subtracted); the QoS-only baseline sorts on it.
	QoSImportance float64
}

// Rank computes the classification parameters for every offer. The result
// refers to the elements of offers rather than copying them.
func Rank(offers []SystemOffer, u profile.UserProfile) []Ranked {
	out := make([]Ranked, len(offers))
	for i := range offers {
		o := &offers[i]
		var q float64
		for _, s := range o.Settings() {
			q += u.Importance.QoS(s)
		}
		out[i] = Ranked{
			SystemOffer:   o,
			Status:        SNS(*o, u),
			OIF:           q - u.Importance.Cost(o.Total()),
			QoSImportance: q,
		}
	}
	return out
}

// Orderer is a classifier: a strict total order over ranked offers, best
// first, and the name that identifies it in experiment output. The negotiation
// pipeline keeps the K best offers under Less without sorting the product;
// Sort is the full stable sort the same Less defines.
type Orderer interface {
	// Less reports whether a ranks strictly better than b.
	Less(a, b Ranked) bool
	Name() string
}

// Sort orders the slice in place, best offer first.
func Sort(ranked []Ranked, by Orderer) {
	sort.SliceStable(ranked, func(i, j int) bool { return by.Less(ranked[i], ranked[j]) })
}

// SNSPrimary is the paper's default classification (Section 5.2.2): "we use
// the static negotiation status as primary classification parameter, and
// the OIF as the secondary classification parameter". Ties break on lower
// cost, then on the deterministic offer key (CompareKeys).
type SNSPrimary struct{}

// Name implements Orderer.
func (SNSPrimary) Name() string { return "sns-primary" }

// Less implements Orderer.
func (SNSPrimary) Less(a, b Ranked) bool {
	if a.Status != b.Status {
		return a.Status < b.Status
	}
	if a.OIF != b.OIF {
		return a.OIF > b.OIF
	}
	if a.Cost.Total != b.Cost.Total {
		return a.Cost.Total < b.Cost.Total
	}
	return CompareKeys(a.SystemOffer, b.SystemOffer) < 0
}

// OIFOnly classifies purely by overall importance factor. It reproduces the
// paper's third worked example, which orders offers by OIF alone (see
// DESIGN.md on the discrepancy with the SNS-primary rule), and serves as an
// ablation baseline.
type OIFOnly struct{}

// Name implements Orderer.
func (OIFOnly) Name() string { return "oif-only" }

// Less implements Orderer.
func (OIFOnly) Less(a, b Ranked) bool {
	if a.OIF != b.OIF {
		return a.OIF > b.OIF
	}
	if a.Cost.Total != b.Cost.Total {
		return a.Cost.Total < b.Cost.Total
	}
	return CompareKeys(a.SystemOffer, b.SystemOffer) < 0
}

// CostOnly classifies cheapest-first: Section 5's strawman ("to classify
// system offers in terms of cost is obvious, since the cheapest system
// offer is the best"). Used as an experiment baseline.
type CostOnly struct{}

// Name implements Orderer.
func (CostOnly) Name() string { return "cost-only" }

// Less implements Orderer.
func (CostOnly) Less(a, b Ranked) bool {
	if a.Cost.Total != b.Cost.Total {
		return a.Cost.Total < b.Cost.Total
	}
	return CompareKeys(a.SystemOffer, b.SystemOffer) < 0
}

// QoSOnly classifies by QoS importance alone (the weighted-average scheme
// of [Haf 96] that Section 5 discusses): best perceived quality first,
// ignoring cost. Used as an experiment baseline.
type QoSOnly struct{}

// Name implements Orderer.
func (QoSOnly) Name() string { return "qos-only" }

// Less implements Orderer.
func (QoSOnly) Less(a, b Ranked) bool {
	if a.QoSImportance != b.QoSImportance {
		return a.QoSImportance > b.QoSImportance
	}
	if a.Cost.Total != b.Cost.Total {
		return a.Cost.Total < b.Cost.Total
	}
	return CompareKeys(a.SystemOffer, b.SystemOffer) < 0
}

// Classify ranks and orders offers with the paper's default classifier and
// returns them best-first.
func Classify(offers []SystemOffer, u profile.UserProfile) []Ranked {
	ranked := Rank(offers, u)
	Sort(ranked, SNSPrimary{})
	return ranked
}

// Acceptable reports whether the offer belongs to step 5's acceptable set:
// it satisfies the user's QoS and cost (SNS better than Constraint and total
// cost within budget, the profile's binding worst-acceptable cost). Step 5
// commits resources against the acceptable offers first and falls back to
// the rest ("If none of those offers can be supported by the system, we
// consider the other offers, however always in the order defined above").
// It reads the offer's Cost.Total field: called through the pointer, the
// value receiver of Total would copy the whole offer, even inlined.
func (r *Ranked) Acceptable(budget cost.Money) bool {
	return r.Status != Constraint && r.SystemOffer.Cost.Total <= budget
}

// Partition splits classified offers into the acceptable set and the
// remaining feasible set, both in classified order. The negotiation
// procedure walks the ranked list with Acceptable instead; the materialized
// groups serve callers that reorder within a group (an installed selection
// policy, the booking negotiator) and the tests' reference model.
func Partition(ranked []Ranked, budget cost.Money) (acceptable, feasible []Ranked) {
	for i := range ranked {
		if ranked[i].Acceptable(budget) {
			acceptable = append(acceptable, ranked[i])
		} else {
			feasible = append(feasible, ranked[i])
		}
	}
	return acceptable, feasible
}
