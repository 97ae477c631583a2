package offer

import (
	"sort"

	"qosneg/internal/profile"
)

// Ranked is a system offer annotated with its two classification parameters
// (negotiation step 3, "computation of classification parameters"). The offer
// is carried by reference: it is shared with whoever built it (the offer
// cache's materialized product on a hit) and must be treated as immutable.
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

// Classifier orders ranked offers best-first.
type Classifier interface {
	// Sort orders the slice in place, best offer first.
	Sort(offers []Ranked)
	// Name identifies the classifier in experiment output.
	Name() string
}

// SNSPrimary is the paper's default classification (Section 5.2.2): "we use
// the static negotiation status as primary classification parameter, and
// the OIF as the secondary classification parameter". Ties break on lower
// cost, then on the deterministic offer key.
type SNSPrimary struct{}

// Name implements Classifier.
func (SNSPrimary) Name() string { return "sns-primary" }

// Sort implements Classifier.
func (SNSPrimary) Sort(offers []Ranked) {
	sort.SliceStable(offers, func(i, j int) bool {
		if offers[i].Status != offers[j].Status {
			return offers[i].Status < offers[j].Status
		}
		if offers[i].OIF != offers[j].OIF {
			return offers[i].OIF > offers[j].OIF
		}
		if offers[i].Total() != offers[j].Total() {
			return offers[i].Total() < offers[j].Total()
		}
		return offers[i].Key() < offers[j].Key()
	})
}

// OIFOnly classifies purely by overall importance factor. It reproduces the
// paper's third worked example, which orders offers by OIF alone (see
// DESIGN.md on the discrepancy with the SNS-primary rule), and serves as an
// ablation baseline.
type OIFOnly struct{}

// Name implements Classifier.
func (OIFOnly) Name() string { return "oif-only" }

// Sort implements Classifier.
func (OIFOnly) Sort(offers []Ranked) {
	sort.SliceStable(offers, func(i, j int) bool {
		if offers[i].OIF != offers[j].OIF {
			return offers[i].OIF > offers[j].OIF
		}
		if offers[i].Total() != offers[j].Total() {
			return offers[i].Total() < offers[j].Total()
		}
		return offers[i].Key() < offers[j].Key()
	})
}

// CostOnly classifies cheapest-first: Section 5's strawman ("to classify
// system offers in terms of cost is obvious, since the cheapest system
// offer is the best"). Used as an experiment baseline.
type CostOnly struct{}

// Name implements Classifier.
func (CostOnly) Name() string { return "cost-only" }

// Sort implements Classifier.
func (CostOnly) Sort(offers []Ranked) {
	sort.SliceStable(offers, func(i, j int) bool {
		if offers[i].Total() != offers[j].Total() {
			return offers[i].Total() < offers[j].Total()
		}
		return offers[i].Key() < offers[j].Key()
	})
}

// QoSOnly classifies by QoS importance alone (the weighted-average scheme
// of [Haf 96] that Section 5 discusses): best perceived quality first,
// ignoring cost. Used as an experiment baseline.
type QoSOnly struct{}

// Name implements Classifier.
func (QoSOnly) Name() string { return "qos-only" }

// Sort implements Classifier.
func (QoSOnly) Sort(offers []Ranked) {
	sort.SliceStable(offers, func(i, j int) bool {
		if offers[i].QoSImportance != offers[j].QoSImportance {
			return offers[i].QoSImportance > offers[j].QoSImportance
		}
		if offers[i].Total() != offers[j].Total() {
			return offers[i].Total() < offers[j].Total()
		}
		return offers[i].Key() < offers[j].Key()
	})
}

// Classify ranks and orders offers with the paper's default classifier and
// returns them best-first, together with the index boundaries the
// commitment step needs.
func Classify(offers []SystemOffer, u profile.UserProfile) []Ranked {
	ranked := Rank(offers, u)
	SNSPrimary{}.Sort(ranked)
	return ranked
}

// Acceptable reports whether the offer belongs to step 5's acceptable set:
// it satisfies the user's QoS and cost (SNS better than Constraint and total
// cost within the binding budget). Step 5 commits resources against the
// acceptable offers first and falls back to the rest ("If none of those
// offers can be supported by the system, we consider the other offers,
// however always in the order defined above").
func (r Ranked) Acceptable(u profile.UserProfile) bool {
	return r.Status != Constraint && WithinBudget(*r.SystemOffer, u)
}

// Partition splits classified offers into the acceptable set and the
// remaining feasible set, both in classified order. The negotiation
// procedure walks the ranked list with Acceptable instead; the materialized
// groups serve callers that reorder within a group (an installed selection
// policy, the booking negotiator) and the tests' reference model.
func Partition(ranked []Ranked, u profile.UserProfile) (acceptable, feasible []Ranked) {
	for _, r := range ranked {
		if r.Acceptable(u) {
			acceptable = append(acceptable, r)
		} else {
			feasible = append(feasible, r)
		}
	}
	return acceptable, feasible
}
