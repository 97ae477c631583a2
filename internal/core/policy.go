package core

import (
	"slices"

	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
)

// The policy layer makes step 5's commitment order and the adaptation
// procedure's target order pluggable — within the freedom the paper leaves.
// Section 5's classification is normative: offers are attempted in status
// order, best OIF first. But offers the classifier ranked *equal* — same
// status, same OIF, typically the same logical configuration replicated on
// different servers — are interchangeable as far as the user is concerned,
// and the classical tie-break (total cost, then offer key) is arbitrary. A
// Policy may permute exactly those runs of equals, nothing else; so
// any policy, however adventurous, preserves the procedure's user-visible
// QoS ordering, and a nil policy is byte-for-byte today's behaviour at zero
// cost (the group slice is returned untouched, no candidate features are
// gathered).

// PolicyServer is one server's row as a policy sees it: its live load from
// the shared server object, and the server table's record of its commit
// outcomes.
type PolicyServer struct {
	ID media.ServerID
	// Utilization is the server's live load (zero if the server is not
	// registered with this manager).
	Utilization float64
	// ConsecutiveFailures counts commit failures since the server's last
	// success; Quarantines counts breaker trips over the server's lifetime.
	ConsecutiveFailures int
	Quarantines         int
	// Successes and Failures are the server's commit outcomes for the
	// request's service guarantee, decayed: each new outcome of that
	// guarantee counts 1 and scales the older ones by 0.98.
	Successes, Failures float64
}

// PolicyCandidate is one offer of a tie run, as presented to a policy, in
// classical order: the first is the offer the fixed tie-break would attempt
// first.
type PolicyCandidate struct {
	// Cost is the offer's total price.
	Cost cost.Money
	// Servers lists each distinct server the offer commits against, in
	// choice order.
	Servers []PolicyServer
}

// Policy orders the offers the classifier ranked equal, in step 5's
// commitment attempts and in the adaptation procedure's choice of target.
// Order receives one maximal run of (Status, OIF)-equal candidates, at least
// two, and returns the order to attempt them in as a permutation of
// 0..len(ties)-1. A nil or invalid return keeps the classical order, so a
// policy can always decline. A policy keeps no evidence of its own: the
// server table records every commit outcome, and the candidates carry it.
type Policy interface {
	Order(ties []PolicyCandidate) []int
}

// policyOrder applies the policy to a partition group: each maximal
// run of (Status, OIF)-equal offers of length ≥ 2 is presented to the
// policy, and a valid non-identity permutation reorders that run in a fresh
// copy of the group. It returns the (possibly reordered) group plus, when
// anything moved, the classical rank of each position — nil means the group
// is untouched and position equals rank. A nil policy short-circuits to the
// input slice: the policy-off path allocates nothing and compares nothing
// beyond this one nil check.
func (m *Manager) policyOrder(group []offer.Ranked, g cost.Guarantee, pol Policy, procedure string) ([]offer.Ranked, []int) {
	if pol == nil || len(group) < 2 {
		return group, nil
	}
	var out []offer.Ranked
	var ranks []int
	for lo := 0; lo < len(group); {
		hi := lo + 1
		for hi < len(group) && group[hi].Status == group[lo].Status && group[hi].OIF == group[lo].OIF {
			hi++
		}
		if hi-lo >= 2 {
			perm := pol.Order(m.policyCandidates(group[lo:hi], g))
			if len(perm) == hi-lo && validPermutation(perm) && !identityPermutation(perm) {
				if out == nil {
					out = append([]offer.Ranked(nil), group...)
					ranks = make([]int, len(group))
					for i := range ranks {
						ranks[i] = i
					}
				}
				for i, p := range perm {
					out[lo+i] = group[lo+p]
					ranks[lo+i] = lo + p
				}
				m.met.policyReorders.With(procedure).Inc()
			}
		}
		lo = hi
	}
	if out == nil {
		return group, nil
	}
	return out, ranks
}

// policyCandidates builds the rows for one tie run, each distinct server's
// read once from the server table.
func (m *Manager) policyCandidates(run []offer.Ranked, g cost.Guarantee) []PolicyCandidate {
	var seen []PolicyServer
	out := make([]PolicyCandidate, len(run))
	for i, r := range run {
		out[i].Cost = r.Total()
		for _, ch := range r.Choices {
			sid := ch.Variant.Server
			if slices.ContainsFunc(out[i].Servers, func(sv PolicyServer) bool { return sv.ID == sid }) {
				continue
			}
			k := slices.IndexFunc(seen, func(sv PolicyServer) bool { return sv.ID == sid })
			if k < 0 {
				k = len(seen)
				seen = append(seen, m.servers.policyInfo(sid, g))
			}
			out[i].Servers = append(out[i].Servers, seen[k])
		}
	}
	return out
}

// validPermutation reports whether perm is a permutation of 0..len(perm)-1.
// Anything else — wrong length is the caller's concern, out-of-range or
// repeated indices are caught here — is ignored and the classical order
// stands.
func validPermutation(perm []int) bool {
	if perm == nil {
		return false
	}
	var small [16]bool
	seen := small[:]
	if len(perm) > len(seen) {
		seen = make([]bool, len(perm))
	} else {
		seen = seen[:len(perm)]
	}
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// identityPermutation reports whether perm leaves every index in place.
func identityPermutation(perm []int) bool {
	for i, p := range perm {
		if p != i {
			return false
		}
	}
	return true
}
