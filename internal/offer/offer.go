// Package offer implements the system/user offer machinery of Sections 4
// and 5: enumeration of feasible system offers (one variant per monomedia
// of the document), the mapping from system offers to user offers, and the
// classification procedure built on the two parameters of Section 5.2 — the
// static negotiation status (SNS) as primary key and the overall importance
// factor (OIF) as secondary key.
package offer

import (
	"fmt"
	"strings"

	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// Choice selects one variant for one monomedia component of the document.
type Choice struct {
	Monomedia media.MonomediaID `json:"monomedia"`
	Variant   media.Variant     `json:"variant"`
}

// SystemOffer is Definition 1: "a set of variants (a variant for each
// monomedia component of the document) and the cost the user should pay".
type SystemOffer struct {
	Document media.DocumentID `json:"document"`
	Choices  []Choice         `json:"choices"`
	Cost     cost.Breakdown   `json:"cost"`
	// key caches Key()'s join. The classification comparators tie-break on
	// Key() and may call it O(K log K) times per offer; buildOffer fills the
	// cache once so ties cost no allocation. Offers built by hand or decoded
	// from JSON have key == "" and fall back to computing.
	key string
}

// Total is the cost the user would be charged for this offer.
func (o SystemOffer) Total() cost.Money { return o.Cost.Total }

// Settings returns the user-perceptible QoS of each chosen variant, in
// choice order.
func (o SystemOffer) Settings() []qos.Setting {
	out := make([]qos.Setting, len(o.Choices))
	for i, c := range o.Choices {
		out[i] = c.Variant.QoS
	}
	return out
}

// Key is a deterministic identity for the offer: the chosen variant ids in
// choice order. Classification uses it as the final tie-breaker and the
// adaptation procedure uses it to exclude the offer currently in trouble.
func (o SystemOffer) Key() string {
	if o.key != "" || len(o.Choices) == 0 {
		return o.key
	}
	return computeKey(o.Choices)
}

// Summary returns the offer's identity and price without its choices or
// per-stream cost lines: what outlives a session. Of the product the offer
// was built in it keeps only the key's bytes alive — for a slab-built
// product the one buffer holding every offer's key, a few percent of the
// product — and none of the offers, choices or cost lines.
func (o SystemOffer) Summary() SystemOffer {
	return SystemOffer{
		Document: o.Document,
		Cost:     cost.Breakdown{Copyright: o.Cost.Copyright, Total: o.Cost.Total},
		key:      o.Key(),
	}
}

// computeKey joins the chosen variant ids; Key()'s slow path for offers whose
// cache was not filled (hand-built literals, JSON round-trips).
func computeKey(choices []Choice) string {
	parts := make([]string, len(choices))
	for i, c := range choices {
		parts[i] = string(c.Variant.ID)
	}
	return strings.Join(parts, "+")
}

// UserOffer derives Definition 2's user offer: "the QoS the system is able
// to provide and the cost the user should pay ... specified as a MM
// profile". Multiple variants of the same kind (unusual, but possible for a
// document with two video components) keep the first occurrence.
func (o SystemOffer) UserOffer() profile.MMProfile {
	var p profile.MMProfile
	for _, c := range o.Choices {
		q := c.Variant.QoS
		switch {
		case q.Video != nil && p.Video == nil:
			v := *q.Video
			p.Video = &v
		case q.Audio != nil && p.Audio == nil:
			a := *q.Audio
			p.Audio = &a
		case q.Image != nil && p.Image == nil:
			i := *q.Image
			p.Image = &i
		case q.Text != nil && p.Text == nil:
			t := *q.Text
			p.Text = &t
		}
	}
	p.Cost = profile.CostProfile{MaxCost: o.Total()}
	return p
}

// String renders the offer in the paper's style:
// "(color, 25 frames/s, 480 pixels/line) + (CD quality) at 5$".
func (o SystemOffer) String() string {
	parts := make([]string, len(o.Choices))
	for i, c := range o.Choices {
		parts[i] = c.Variant.QoS.String()
	}
	return fmt.Sprintf("%s at %s", strings.Join(parts, " + "), o.Total())
}

// Status is the static negotiation status of Section 5.2.1. Ordering:
// Desirable is best, Constraint is worst.
type Status int

// The three SNS values. The paper notes more values may be considered.
const (
	// Desirable: "the QoS satisfies the QoS desired by the user" — and,
	// per the paper's own example (offer4, which matches the desired QoS
	// but exceeds the 4$ budget, is rated ACCEPTABLE), the cost stays
	// within the desired budget. See DESIGN.md, interpretation notes.
	Desirable Status = iota
	// Acceptable: "the QoS is better than the worst acceptable QoS
	// values accepted by the user". Cost does not enter.
	Acceptable
	// Constraint: "the QoS of the offer does not meet the worst
	// acceptable QoS values requested by the user (for at least one
	// monomedia and some of its characteristics)".
	Constraint
)

var statusNames = [...]string{"DESIRABLE", "ACCEPTABLE", "CONSTRAINT"}

// String returns the paper's upper-case name for the status.
func (s Status) String() string {
	if s < 0 || int(s) >= len(statusNames) {
		return fmt.Sprintf("Status(%d)", int(s))
	}
	return statusNames[s]
}

// SNS computes the static negotiation status of an offer against a user
// profile: "a simple comparison between the QoS associated with the offer
// and the user profile". Monomedia kinds for which the profile expresses no
// requirement do not constrain the status.
func SNS(o SystemOffer, u profile.UserProfile) Status {
	meetsDesired := true
	meetsWorst := true
	for _, c := range o.Choices {
		kind, ok := c.Variant.QoS.Kind()
		if !ok {
			meetsDesired, meetsWorst = false, false
			break
		}
		if des, ok := u.Desired.Setting(kind); ok {
			if !c.Variant.QoS.Satisfies(des) {
				meetsDesired = false
			}
		}
		if wor, ok := u.Worst.Setting(kind); ok {
			if !c.Variant.QoS.Satisfies(wor) {
				meetsWorst = false
			}
		}
	}
	switch {
	case meetsDesired && o.Total() <= u.Desired.Cost.MaxCost:
		return Desirable
	case meetsWorst:
		return Acceptable
	default:
		return Constraint
	}
}

// OIF computes the overall importance factor of Section 5.2.2(c):
// QoS importance minus cost importance, under the profile's importance
// factors.
func OIF(o SystemOffer, u profile.UserProfile) float64 {
	return u.Importance.Overall(o.Settings(), o.Total())
}

// WithinBudget reports whether the offer's cost respects the binding
// (worst-acceptable) budget. Together with a non-Constraint SNS this makes
// the offer a member of the "acceptable set" the commitment step tries
// first ("At first we consider only the offers which satisfy the cost and
// the QoS requested by the user").
func WithinBudget(o SystemOffer, u profile.UserProfile) bool {
	return o.Total() <= u.MaxCost()
}
