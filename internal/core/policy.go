package core

import (
	"time"

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
// gathered, no clock is read).

// PolicyServer is the per-server feature vector a policy sees for every
// server a candidate offer touches: live load from the shared server object
// and breaker history from the manager's health table.
type PolicyServer struct {
	ID media.ServerID
	// ActiveStreams and Utilization are the server's live load (zero if the
	// server is not registered with this manager).
	ActiveStreams int
	Utilization   float64
	// ConsecutiveFailures counts commit failures since the server's last
	// success; Quarantines counts breaker trips over the server's lifetime.
	ConsecutiveFailures int
	Quarantines         int
}

// PolicyCandidate is one offer of a tie run, as presented to a policy.
type PolicyCandidate struct {
	// Rank is the candidate's position within the run in classical order
	// (0 is the offer the fixed tie-break would attempt first).
	Rank int
	// Key is the offer's stable identity (offer.SystemOffer.Key).
	Key string
	// Status and OIF are the classification parameters; equal across the
	// run by construction.
	Status offer.Status
	OIF    float64
	// Cost is the offer's total price.
	Cost cost.Money
	// Guarantee is the service class the user requested — the QoS-class
	// feature of a contextual policy.
	Guarantee cost.Guarantee
	// Servers lists each distinct server the offer commits against, in
	// choice order.
	Servers []PolicyServer
}

// Policy orders the offers the classifier ranked equal, in step 5's
// commitment attempts and in the adaptation procedure's choice of target.
// Order receives one maximal run of (Status, OIF)-equal candidates, at least
// two, and returns the order to attempt them in as a permutation of
// 0..len(ties)-1. A nil or invalid return keeps the classical order, so a
// policy can always decline. Policies that also implement PolicyObserver
// receive the outcome of every commit attempt and can learn online.
type Policy interface {
	Order(ties []PolicyCandidate) []int
}

// CommitObservation is the outcome of one per-server commit attempt, fed to
// learning policies: CauseNone with the reserve+connect latency on success,
// the failure cause (server-down, capacity, …) otherwise.
type CommitObservation struct {
	Server    media.ServerID
	Guarantee cost.Guarantee
	Cause     FailureCause
	// Latency is the wall time of the successful reserve+connect for this
	// choice; zero for failures.
	Latency time.Duration
}

// PolicyObserver is the optional learning surface of a policy. The manager
// type-asserts it once at construction; ObserveCommit runs on the
// negotiating goroutine and must be fast.
type PolicyObserver interface {
	ObserveCommit(CommitObservation)
}

// observeCommit feeds one attempt outcome to the learning policy.
func (m *Manager) observeCommit(server media.ServerID, g cost.Guarantee, cause FailureCause, latency time.Duration) {
	if m.observer == nil || server == "" {
		return
	}
	m.observer.ObserveCommit(CommitObservation{Server: server, Guarantee: g, Cause: cause, Latency: latency})
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
				m.met.policyReorder(procedure)
			}
		}
		lo = hi
	}
	if out == nil {
		return group, nil
	}
	return out, ranks
}

// policyCandidates builds the feature vectors for one tie run. Server
// features are gathered once per distinct server across the run.
func (m *Manager) policyCandidates(run []offer.Ranked, g cost.Guarantee) []PolicyCandidate {
	seen := make(map[media.ServerID]PolicyServer, 2)
	out := make([]PolicyCandidate, len(run))
	for i, r := range run {
		c := PolicyCandidate{
			Rank:      i,
			Key:       r.Key(),
			Status:    r.Status,
			OIF:       r.OIF,
			Cost:      r.Total(),
			Guarantee: g,
		}
		for _, ch := range r.Choices {
			sid := ch.Variant.Server
			info, ok := seen[sid]
			if !ok {
				info = m.servers.policyInfo(sid)
				seen[sid] = info
			}
			dup := false
			for _, have := range c.Servers {
				if have.ID == sid {
					dup = true
					break
				}
			}
			if !dup {
				c.Servers = append(c.Servers, info)
			}
		}
		out[i] = c
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
