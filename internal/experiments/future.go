package experiments

import (
	"fmt"
	"time"

	"qosneg/internal/offer"
	"qosneg/internal/profile"
)

// This file adapts the calendar machinery to the paper's offer model: a
// future negotiation classifies offers exactly as Section 5 prescribes and
// then books — instead of immediately reserving — the resources of the best
// offer whose demands fit the requested interval.

// ServerResource names the calendar of a media server's disk bandwidth.
func ServerResource(server string) string { return "server:" + server }

// LinkResource names the calendar of a client's access-link bandwidth.
func LinkResource(client string) string { return "link:" + client }

// DemandsFor derives the booking demands of one system offer: the average
// bit rate of each continuous choice against its server's calendar, plus
// the summed rate against the client's access link.
func DemandsFor(r offer.Ranked, clientResource string) []Demand {
	var demands []Demand
	var total int64
	for _, ch := range r.Choices {
		rate := int64(ch.Variant.NetworkQoS().AvgBitRate)
		if rate == 0 {
			continue
		}
		demands = append(demands, Demand{Resource: ServerResource(string(ch.Variant.Server)), Amount: rate})
		total += rate
	}
	if total > 0 {
		demands = append(demands, Demand{Resource: clientResource, Amount: total})
	}
	return demands
}

// Reservation is a successful future negotiation: the booked offer and its
// plan.
type Reservation struct {
	Offer offer.Ranked
	Plan  *Plan
	// Degraded reports that the booked offer does not satisfy the user's
	// requested QoS/cost (the FAILEDWITHOFFER analogue).
	Degraded bool
}

// Negotiator books future reservations against a planner.
type Negotiator struct {
	planner *Planner
}

// NewNegotiator wraps a planner.
func NewNegotiator(p *Planner) *Negotiator { return &Negotiator{planner: p} }

// Planner returns the underlying planner.
func (n *Negotiator) Planner() *Planner { return n.planner }

// Negotiate books the best classified offer whose demands fit
// [start, start+duration): the acceptable set first, then the remaining
// feasible offers, mirroring negotiation step 5. It returns ErrOverbooked
// when no offer fits.
func (n *Negotiator) Negotiate(ranked []offer.Ranked, u profile.UserProfile, clientResource string, start, duration time.Duration) (Reservation, error) {
	if duration <= 0 {
		return Reservation{}, fmt.Errorf("booking: non-positive duration %v", duration)
	}
	acceptable, feasible := offer.Partition(ranked, u.MaxCost())
	for gi, group := range [][]offer.Ranked{acceptable, feasible} {
		for _, r := range group {
			plan, err := n.planner.Reserve(start, start+duration, DemandsFor(r, clientResource))
			if err != nil {
				continue
			}
			return Reservation{Offer: r, Plan: plan, Degraded: gi == 1}, nil
		}
	}
	return Reservation{}, fmt.Errorf("%w: no offer bookable in [%v, %v)", ErrOverbooked, start, start+duration)
}
