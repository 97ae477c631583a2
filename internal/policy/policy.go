// Package policy provides concrete policies for the QoS manager's pluggable
// tie-break layer (core.Policy): a static policy that keeps the paper's fixed
// order, and an online contextual bandit that learns which servers commit
// reliably and steers tie runs toward them.
//
// The policy layer can only permute offers the classifier ranked equal, so
// neither policy can change which QoS the user ends up with — only how many
// doomed commit attempts the negotiation burns before getting there.
package policy

import (
	"math"
	"sort"
	"sync"

	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
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
// UCB-style uncertainty bonus. decay in (0,1] discounts old evidence on
// every new observation of an arm, so the bandit tracks servers whose
// behaviour changes. loadWeight penalizes a server's live utilization;
// failureWeight its consecutive-failure streak and quarantine history;
// latencyWeight the arm's learned commit latency (per second); costWeight
// applies gentle pressure toward cheaper offers within a tie run, so an
// indifferent bandit degrades to the classical cheapest-first order.
const (
	exploration   = 0.6
	decay         = 0.98
	loadWeight    = 0.15
	failureWeight = 0.25
	latencyWeight = 0.5
	costWeight    = 0.05
)

// armKey is the bandit's context: which server, for which service class.
// Guaranteed and best-effort commits stress a server differently (admission
// control versus overbooking), so the bandit learns them as separate arms.
type armKey struct {
	server media.ServerID
	g      cost.Guarantee
}

// arm is the learned state of one (server, guarantee) pair: exponentially
// decayed success/failure pseudo-counts (a Beta posterior over the commit
// success probability) and a commit-latency EWMA in seconds.
type arm struct {
	successes float64
	failures  float64
	latency   float64
}

// n is the arm's effective evidence weight.
func (a *arm) n() float64 { return a.successes + a.failures }

// mean is the posterior mean success probability, Beta(1,1) prior.
func (a *arm) mean() float64 { return (a.successes + 1) / (a.n() + 2) }

// Bandit is an online contextual bandit over commit outcomes. It scores
// each candidate offer by its weakest server — posterior commit-success
// mean plus an optimism bonus, minus live-load, failure-history, latency
// and cost penalties — and orders tie runs best-score-first. It learns from
// every per-server commit attempt the manager feeds it via ObserveCommit.
// Every shard of a fleet consults and teaches the same Bandit.
//
// All methods are safe for concurrent use; ordering and observation take
// one mutex and do O(run length × servers) float work, no allocation beyond
// the returned permutation.
type Bandit struct {
	mu   sync.Mutex
	arms map[armKey]*arm
}

// NewBandit builds a bandit with no evidence.
func NewBandit() *Bandit {
	return &Bandit{arms: make(map[armKey]*arm)}
}

// Order implements core.Policy: it scores each candidate and returns the
// best-first permutation, for step 5 and adaptation alike — a degraded
// session should move to the server most likely to hold its reservation.
// Stable: equal scores keep their classical relative order, so a bandit
// with no evidence returns the identity (which the manager treats as "no
// reorder").
func (b *Bandit) Order(ties []core.PolicyCandidate) []int {
	if len(ties) < 2 {
		return nil
	}
	lo, hi := ties[0].Cost, ties[0].Cost
	for _, c := range ties[1:] {
		if c.Cost < lo {
			lo = c.Cost
		}
		if c.Cost > hi {
			hi = c.Cost
		}
	}
	span := float64(hi - lo)

	b.mu.Lock()
	scores := make([]float64, len(ties))
	for i, c := range ties {
		s := b.scoreLocked(c)
		if span > 0 {
			s -= costWeight * float64(c.Cost-lo) / span
		}
		scores[i] = s
	}
	b.mu.Unlock()

	perm := make([]int, len(ties))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool {
		return scores[perm[x]] > scores[perm[y]]
	})
	return perm
}

// scoreLocked scores one candidate as the minimum over its servers — an
// offer is only as committable as its least reliable server.
func (b *Bandit) scoreLocked(c core.PolicyCandidate) float64 {
	score := math.Inf(1)
	for _, sv := range c.Servers {
		s := b.serverScoreLocked(sv, c.Guarantee)
		if s < score {
			score = s
		}
	}
	if math.IsInf(score, 1) {
		return 0
	}
	return score
}

func (b *Bandit) serverScoreLocked(sv core.PolicyServer, g cost.Guarantee) float64 {
	var a arm
	if have, ok := b.arms[armKey{sv.ID, g}]; ok {
		a = *have
	}
	mean := a.mean()
	sigma := math.Sqrt(mean * (1 - mean) / (a.n() + 1))
	s := mean + exploration*sigma
	s -= loadWeight * sv.Utilization
	s -= failureWeight * float64(sv.ConsecutiveFailures)
	s -= failureWeight * 0.5 * float64(sv.Quarantines)
	s -= latencyWeight * a.latency
	return s
}

// ObserveCommit implements core.PolicyObserver: fold one attempt outcome
// into the arm's decayed counts.
func (b *Bandit) ObserveCommit(o core.CommitObservation) {
	if o.Server == "" {
		return
	}
	k := armKey{o.Server, o.Guarantee}

	b.mu.Lock()
	a := b.arms[k]
	if a == nil {
		a = &arm{}
		b.arms[k] = a
	}
	a.successes *= decay
	a.failures *= decay
	if o.Cause == core.CauseNone {
		a.successes++
		if sec := o.Latency.Seconds(); sec > 0 {
			if a.latency == 0 {
				a.latency = sec
			} else {
				a.latency = 0.8*a.latency + 0.2*sec
			}
		}
	} else {
		a.failures++
	}
	b.mu.Unlock()
}
