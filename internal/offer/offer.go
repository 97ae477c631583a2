// Package offer implements the system/user offer machinery of Sections 4
// and 5: enumeration of feasible system offers (one variant per monomedia
// of the document), the mapping from system offers to user offers, and the
// classification procedure built on the two parameters of Section 5.2 — the
// static negotiation status (SNS) as primary key and the overall importance
// factor (OIF) as secondary key.
package offer

import (
	"cmp"
	"fmt"
	"strings"

	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// Choice selects one variant for one monomedia component of the document.
//
// Variant points at the candidate's own variant (Candidate.Variant of the
// candidate set the offer was built from), so every offer that picks the same
// candidate shares one variant, and so does every session holding such an
// offer. Like the candidates, the variant is immutable: copy it before
// changing a field.
type Choice struct {
	Monomedia media.MonomediaID `json:"monomedia"`
	Variant   *media.Variant    `json:"variant"`
}

// SystemOffer is Definition 1: "a set of variants (a variant for each
// monomedia component of the document) and the cost the user should pay".
type SystemOffer struct {
	Document media.DocumentID `json:"document"`
	Choices  []Choice         `json:"choices"`
	Cost     cost.Breakdown   `json:"cost"`
	// key is Key rendered, or "": an offer the top K writes carries no
	// string. RenderKeys fills it for a ranking the offer cache publishes,
	// and Summary for the offer a retired session keeps.
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
// choice order, joined by "+". Classification breaks its last tie on it and
// adaptation passes over the offer in trouble by it, through CompareKeys.
func (o SystemOffer) Key() string {
	if o.key == "" {
		RenderKeys([]Ranked{{SystemOffer: &o}})
	}
	return o.key
}

// Summary returns the offer's identity and price without its choices or
// per-stream cost lines: what outlives a session. Of the classification the
// offer came from it keeps only the key's bytes: a memoized ranking's
// shared key buffer, or the one string Key joins here.
func (o SystemOffer) Summary() SystemOffer {
	return SystemOffer{
		Document: o.Document,
		Cost:     cost.Breakdown{Copyright: o.Cost.Copyright, Total: o.Cost.Total},
		key:      o.Key(),
	}
}

// RenderKeys renders the offers' keys into one shared buffer, one
// allocation for the lot. It writes the offers, so it is for a ranking no
// one else reads yet: the offer cache calls it before it publishes one.
func RenderKeys(ranked []Ranked) {
	n := 0
	for _, r := range ranked {
		k := keyReader{o: r.SystemOffer}
		for p := k.next(); p != ""; p = k.next() {
			n += len(p)
		}
	}
	var b strings.Builder
	b.Grow(n) // exact: the buffer never moves under the substrings below
	for _, r := range ranked {
		start, k := b.Len(), keyReader{o: r.SystemOffer}
		for p := k.next(); p != ""; p = k.next() {
			b.WriteString(p)
		}
		r.key = b.String()[start:]
	}
}

// CompareKeys returns strings.Compare(a.Key(), b.Key()) without building
// either key: past the leading choices the offers share, it compares the
// keys piece against piece, whatever bytes the ids hold.
func CompareKeys(a, b *SystemOffer) int {
	ra, rb := keyReader{o: a}, keyReader{o: b}
	if a.key == "" && b.key == "" { // a shared choice and its "+": two equal pieces
		for i := 0; i+1 < min(len(a.Choices), len(b.Choices)) && a.Choices[i].Variant == b.Choices[i].Variant; i++ {
			ra.n, rb.n = ra.n+2, rb.n+2
		}
	}
	var x, y string
	for {
		if x == "" {
			x = ra.next()
		}
		if y == "" {
			y = rb.next()
		}
		if x == "" || y == "" {
			return cmp.Compare(len(x), len(y))
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

// keyReader reads an offer's key piece by piece: its rendered key whole,
// or its variant ids with "+" between them.
type keyReader struct {
	o *SystemOffer
	n int // pieces read
}

// next returns the key's next non-empty piece, and "" at its end.
func (r *keyReader) next() string {
	for o := r.o; ; {
		n := r.n
		r.n++
		switch {
		case o.key != "" || len(o.Choices) == 0:
			if n > 0 {
				return ""
			}
			return o.key
		case n >= 2*len(o.Choices)-1:
			return ""
		case n%2 == 1:
			return "+"
		case o.Choices[n/2].Variant.ID != "":
			return string(o.Choices[n/2].Variant.ID)
		}
	}
}

// UserOffer derives Definition 2's user offer: "the QoS the system is able
// to provide and the cost the user should pay ... specified as a MM
// profile". Multiple variants of the same kind (unusual, but possible for a
// document with two video components) keep the first occurrence. Each
// section points at the chosen variant's own QoS, which is immutable like
// the variant: copy a section before changing it.
func (o SystemOffer) UserOffer() profile.MMProfile {
	var p profile.MMProfile
	for _, c := range o.Choices {
		q := &c.Variant.QoS
		switch {
		case q.Video != nil && p.Video == nil:
			p.Video = q.Video
		case q.Audio != nil && p.Audio == nil:
			p.Audio = q.Audio
		case q.Image != nil && p.Image == nil:
			p.Image = q.Image
		case q.Text != nil && p.Text == nil:
			p.Text = q.Text
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
