// Package policy provides concrete policies for the QoS manager's pluggable
// tie-break layer (core.Policy): a static policy that keeps the paper's fixed
// order, and a contextual bandit that steers tie runs toward the servers
// whose commits the server table records as reliable.
//
// The policy layer can only permute offers the classifier ranked equal, so
// neither policy can change which QoS the user ends up with — only how many
// doomed commit attempts the negotiation burns before getting there.
package policy

import (
	"math"
	"sort"

	"qosneg/internal/core"
)

// Static is the identity policy: it declines every reorder, so the manager
// keeps the classical tie-break (total cost, then offer key). Installing it
// is behaviourally identical to installing no policy at all; it exists so
// experiments can A/B "policy machinery on, learning off" against the
// bandit, and so the policy-off equivalence claim has a test subject.
type Static struct{}

// NewStatic returns the identity policy.
func NewStatic() Static { return Static{} }

// Order declines the reorder; the classical order stands.
func (Static) Order(ties []core.PolicyCandidate) []int { return nil }

// The bandit's tuning, the weights E20 runs with. exploration scales the
// UCB-style uncertainty bonus. loadWeight penalizes a server's live
// utilization; failureWeight its consecutive-failure streak and quarantine
// history; costWeight applies gentle pressure toward cheaper offers within
// a tie run, so an indifferent bandit degrades to the classical
// cheapest-first order.
const (
	exploration   = 0.6
	loadWeight    = 0.15
	failureWeight = 0.25
	costWeight    = 0.05
)

// Bandit is a contextual bandit over commit outcomes. It scores each
// candidate offer by its weakest server — the posterior commit-success mean
// of the server's decayed outcome counts for the request's guarantee, plus
// an optimism bonus, minus live-load, failure-history and cost penalties —
// and orders tie runs best-score-first.
//
// It keeps no state: the evidence is the manager's server table, which
// every commit attempt posts to and every shard of a fleet shares. It has
// no latency input, because nothing it is deployed with measures a
// server's commit latency: in-process servers answer in CPU time, and a
// fault injector adds one latency to every server alike. A score read from
// wall-clock microseconds would order equally reliable servers by noise.
type Bandit struct{}

// NewBandit returns the bandit.
func NewBandit() Bandit { return Bandit{} }

// Order implements core.Policy: it scores each candidate and returns the
// best-first permutation, for step 5 and adaptation alike — a degraded
// session should move to the server most likely to hold its reservation.
// Stable: equal scores keep their classical relative order, so candidates
// with equal evidence get the identity (which the manager treats as "no
// reorder").
func (Bandit) Order(ties []core.PolicyCandidate) []int {
	if len(ties) < 2 {
		return nil
	}
	lo, hi := ties[0].Cost, ties[0].Cost
	for _, c := range ties[1:] {
		lo, hi = min(lo, c.Cost), max(hi, c.Cost)
	}
	span := float64(hi - lo)
	scores := make([]float64, len(ties))
	perm := make([]int, len(ties))
	for i, c := range ties {
		scores[i] = score(c)
		if span > 0 {
			scores[i] -= costWeight * float64(c.Cost-lo) / span
		}
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool {
		return scores[perm[x]] > scores[perm[y]]
	})
	return perm
}

// score scores one candidate as the minimum over its servers — an offer is
// only as committable as its least reliable server.
func score(c core.PolicyCandidate) float64 {
	s := math.Inf(1)
	for _, sv := range c.Servers {
		s = min(s, serverScore(sv))
	}
	if math.IsInf(s, 1) {
		return 0
	}
	return s
}

// serverScore is the posterior mean of a Beta(1,1) prior updated with the
// server's outcome counts, plus the exploration bonus, minus the penalties.
func serverScore(sv core.PolicyServer) float64 {
	n := sv.Successes + sv.Failures
	mean := (sv.Successes + 1) / (n + 2)
	sigma := math.Sqrt(mean * (1 - mean) / (n + 1))
	return mean + exploration*sigma -
		loadWeight*sv.Utilization -
		failureWeight*float64(sv.ConsecutiveFailures) -
		failureWeight*0.5*float64(sv.Quarantines)
}
