// Package domain implements hierarchical multi-domain negotiation, the
// [Haf 95b] extension the paper's sub-project developed alongside the HPDC
// procedure: when several administrative domains (providers) can each
// deliver the requested document, a broker runs the negotiation procedure
// in every candidate domain, compares the resulting user offers with the
// user's own importance factors, keeps the best reservation and releases
// the others — the same consider-all-configurations-pick-one optimization,
// lifted one level up.
//
// Each Domain is a complete prototype stack (registry, servers, network,
// QoS manager); the client machine is multi-homed, with an access point in
// every domain it can buy service from.
package domain

import (
	"context"
	"errors"
	"fmt"

	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/registry"
)

// ErrNoDomain is returned when no domain carries the requested document.
var ErrNoDomain = errors.New("domain: no domain carries the document")

// Domain is one administrative domain: a named, self-contained prototype.
type Domain struct {
	Name     string
	Manager  core.SessionManager
	Registry *registry.Registry
}

// Has reports whether the domain's catalog carries the document.
func (d *Domain) Has(id media.DocumentID) bool {
	_, err := d.Registry.Document(id)
	return err == nil
}

// Result is the broker's outcome: the winning domain's negotiation result,
// plus the per-domain statuses for diagnostics.
type Result struct {
	// Domain is the winning domain's name ("" when nothing was reserved).
	Domain string
	// Result is the winning (or, on total failure, the most informative)
	// negotiation result.
	core.Result
	// PerDomain records each candidate domain's status.
	PerDomain map[string]core.NegotiationStatus
}

// Broker negotiates across domains.
type Broker struct {
	domains []*Domain
}

// NewBroker builds a broker over the given domains.
func NewBroker(domains ...*Domain) *Broker {
	return &Broker{domains: domains}
}

// Domains returns the broker's domain list.
func (b *Broker) Domains() []*Domain { return b.domains }

// Negotiate runs the negotiation procedure in every domain that carries the
// document, selects the best reserved offer — SUCCEEDED beats
// FAILEDWITHOFFER, then higher OIF, then lower cost, then domain order —
// releases the losing reservations and returns the winner.
func (b *Broker) Negotiate(mach client.Machine, doc media.DocumentID, u profile.UserProfile) (Result, error) {
	out := Result{PerDomain: make(map[string]core.NegotiationStatus)}
	type candidate struct {
		domain *Domain
		res    core.Result
	}
	var reserved []candidate
	var bestFailure *candidate
	carriers := 0
	for _, d := range b.domains {
		if !d.Has(doc) {
			continue
		}
		carriers++
		res, err := d.Manager.NegotiateContext(context.Background(), mach, doc, u)
		if err != nil {
			return Result{}, fmt.Errorf("domain %s: %w", d.Name, err)
		}
		out.PerDomain[d.Name] = res.Status
		if res.Status.Reserved() {
			reserved = append(reserved, candidate{domain: d, res: res})
			continue
		}
		if bestFailure == nil || res.Status < bestFailure.res.Status {
			c := candidate{domain: d, res: res}
			bestFailure = &c
		}
	}
	if carriers == 0 {
		return Result{}, fmt.Errorf("%w: %q", ErrNoDomain, doc)
	}
	if len(reserved) == 0 {
		out.Domain = bestFailure.domain.Name
		out.Result = bestFailure.res
		return out, nil
	}

	best := 0
	for i := 1; i < len(reserved); i++ {
		if better(reserved[i], reserved[best]) {
			best = i
		}
	}
	// Release the losers' reservations.
	for i, c := range reserved {
		if i == best {
			continue
		}
		c.domain.Manager.Reject(c.res.Session.ID)
	}
	out.Domain = reserved[best].domain.Name
	out.Result = reserved[best].res
	return out, nil
}

// better ranks candidate a above candidate b.
func better(a, b struct {
	domain *Domain
	res    core.Result
}) bool {
	if a.res.Status != b.res.Status {
		return a.res.Status < b.res.Status // Succeeded < FailedWithOffer
	}
	ao, bo := a.res.Session.Current, b.res.Session.Current
	if ao.OIF != bo.OIF {
		return ao.OIF > bo.OIF
	}
	return a.res.Session.Cost() < b.res.Session.Cost()
}
