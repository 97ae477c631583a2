// Package policy provides concrete Selection/Adaptation policies for the
// QoS manager's pluggable tie-break layer (core.SelectionPolicy,
// core.AdaptationPolicy): a static policy that keeps the paper's fixed
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

// Name implements core.SelectionPolicy and core.AdaptationPolicy.
func (Static) Name() string { return "static" }

// OrderCommits declines the reorder; the classical order stands.
func (Static) OrderCommits(ties []core.PolicyCandidate) []int { return nil }

// OrderTargets declines the reorder; the classical order stands.
func (Static) OrderTargets(ties []core.PolicyCandidate) []int { return nil }

// Config tunes the bandit. The zero value is usable: DefaultConfig's values
// are substituted for any field left zero.
type Config struct {
	// Seed makes the bandit's exploration deterministic.
	Seed int64
	// Exploration scales the UCB-style uncertainty bonus. Zero means
	// DefaultConfig's value; negative disables the bonus.
	Exploration float64
	// Thompson adds posterior sampling noise on top of the UCB bonus,
	// breaking symmetric ties randomly instead of lexically.
	Thompson bool
	// Decay in (0,1] discounts old evidence on every new observation of an
	// arm, so the bandit tracks servers whose behaviour changes. 1 never
	// forgets.
	Decay float64
	// LoadWeight penalizes a server's live utilization; FailureWeight its
	// consecutive-failure streak and quarantine history; LatencyWeight the
	// arm's learned commit latency (per second); CostWeight applies gentle
	// pressure toward cheaper offers within a tie run, so an indifferent
	// bandit degrades to the classical cheapest-first order.
	LoadWeight    float64
	FailureWeight float64
	LatencyWeight float64
	CostWeight    float64
}

// DefaultConfig are the weights E20 runs with.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		Exploration:   0.6,
		Decay:         0.98,
		LoadWeight:    0.15,
		FailureWeight: 0.25,
		LatencyWeight: 0.5,
		CostWeight:    0.05,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Exploration == 0 {
		c.Exploration = d.Exploration
	} else if c.Exploration < 0 {
		c.Exploration = 0
	}
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = d.Decay
	}
	if c.LoadWeight == 0 {
		c.LoadWeight = d.LoadWeight
	}
	if c.FailureWeight == 0 {
		c.FailureWeight = d.FailureWeight
	}
	if c.LatencyWeight == 0 {
		c.LatencyWeight = d.LatencyWeight
	}
	if c.CostWeight == 0 {
		c.CostWeight = d.CostWeight
	}
	return c
}

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
	cfg Config

	mu   sync.Mutex
	rng  splitmix
	arms map[armKey]*arm
}

// NewBandit builds a bandit with cfg (zero fields take defaults).
func NewBandit(cfg Config) *Bandit {
	cfg = cfg.withDefaults()
	return &Bandit{
		cfg:  cfg,
		rng:  splitmix(cfg.Seed),
		arms: make(map[armKey]*arm),
	}
}

// Name implements core.SelectionPolicy and core.AdaptationPolicy.
func (b *Bandit) Name() string { return "bandit" }

// OrderCommits implements core.SelectionPolicy.
func (b *Bandit) OrderCommits(ties []core.PolicyCandidate) []int { return b.order(ties) }

// OrderTargets implements core.AdaptationPolicy: the same scoring picks the
// adaptation target — a degraded session should move to the server most
// likely to hold its reservation.
func (b *Bandit) OrderTargets(ties []core.PolicyCandidate) []int { return b.order(ties) }

// order scores each candidate and returns the best-first permutation.
// Stable: equal scores keep their classical relative order, so a bandit
// with no evidence and no noise returns the identity (which the manager
// treats as "no reorder").
func (b *Bandit) order(ties []core.PolicyCandidate) []int {
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
			s -= b.cfg.CostWeight * float64(c.Cost-lo) / span
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
	s := mean + b.cfg.Exploration*sigma
	if b.cfg.Thompson {
		s += b.rng.norm() * sigma
	}
	s -= b.cfg.LoadWeight * sv.Utilization
	s -= b.cfg.FailureWeight * float64(sv.ConsecutiveFailures)
	s -= b.cfg.FailureWeight * 0.5 * float64(sv.Quarantines)
	s -= b.cfg.LatencyWeight * a.latency
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
	a.successes *= b.cfg.Decay
	a.failures *= b.cfg.Decay
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

// splitmix is a tiny deterministic PRNG (SplitMix64) so the bandit does not
// share math/rand's global state and seeded runs reproduce bit-for-bit.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 in [0,1).
func (s *splitmix) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// norm is a standard gaussian via Box-Muller.
func (s *splitmix) norm() float64 {
	u := s.float64()
	for u == 0 {
		u = s.float64()
	}
	v := s.float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}
