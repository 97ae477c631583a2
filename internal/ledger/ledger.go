// Package ledger is the resource ledger behind the lifecycle leak checks:
// a strict double-entry account of every resource the QoS manager's
// commitment step acquires — CMFS stream reservations, network bandwidth
// reservations, transport connections — and every release that balances
// it. The substrate packages (cmfs, network, transport) carry hooks that
// post to an installed ledger on every acquire and release, so a test can
// assert the paper's step-5/step-6 bookkeeping invariant directly:
//
//	all sessions terminal  ⇒  the ledger is empty
//
// A release with no matching open entry is a violation (a double release,
// or a release of something never acquired) and is reported immediately
// through the OnViolation callback — the fail-fast half of the check. The
// slow half, leak detection, runs at quiescence via CheckEmpty.
//
// The ledger is split into accounts, one per (kind, owner) pair: each CMFS
// server, the network and the transport system bind theirs once, when the
// ledger is installed, and post to it by reservation id alone. An account
// keeps its open ids in its own integer-keyed set under its own mutex, and
// the ledger-wide acquire, release and open counts are atomics, so a post
// is one uncontended lock and one map operation on a uint64, and takes the
// ledger's own lock only to record a violation. That makes the ledger
// cheap enough to leave on everywhere — it is always on in the test beds
// (package testbed and the core test fixtures install one) — and it is
// nil-safe: every method on a nil *Ledger or nil *Account is a no-op, so
// instrumented substrate code needs no guards.
package ledger

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"qosneg/internal/telemetry"
)

// Metric names registered by Instrument.
const (
	// MetricLeaked counts resources found leaked at a quiescence check or
	// released twice.
	MetricLeaked = "qosneg_leaked_reservations_total"
	// MetricOpen gauges the resources currently held open.
	MetricOpen = "qosneg_ledger_open_resources"
)

// Resource kinds the substrate posts.
const (
	// KindCMFS is a stream reservation on a continuous-media file server;
	// Owner is the server id.
	KindCMFS = "cmfs"
	// KindNetwork is a path bandwidth reservation; Owner is empty.
	KindNetwork = "network"
	// KindTransport is an established transport connection (tracked by its
	// underlying network reservation id); Owner is empty.
	KindTransport = "transport"
)

// Resource identifies one acquirable resource.
type Resource struct {
	Kind  string
	Owner string
	ID    uint64
}

// String renders "kind[owner]/id".
func (r Resource) String() string {
	if r.Owner != "" {
		return fmt.Sprintf("%s[%s]/%d", r.Kind, r.Owner, r.ID)
	}
	return fmt.Sprintf("%s/%d", r.Kind, r.ID)
}

// accountKey names one account.
type accountKey struct{ kind, owner string }

// series is the telemetry a ledger posts to, installed by Instrument.
type series struct {
	leaked    *telemetry.Counter
	openGauge *telemetry.Gauge
}

// Ledger is the double-entry resource account. It is safe for concurrent
// use; the zero value is not usable, build one with New. A nil *Ledger is
// inert.
type Ledger struct {
	// The ledger-wide counts, posted by every account without a lock.
	acquires atomic.Uint64
	releases atomic.Uint64
	open     atomic.Int64

	// accMu guards accounts. Lock order: accMu, then an account's mu, then
	// mu; a post holds only its account's mu, and takes mu after dropping
	// it.
	accMu    sync.Mutex
	accounts map[accountKey]*Account

	// mu guards the violation record and the callback.
	mu         sync.Mutex
	violations []string
	onViolate  func(string)

	// tel is nil when uninstrumented. Posts read it under their account's
	// mu, and Instrument installs it holding every account's mu, so the
	// open gauge counts each post exactly once.
	tel atomic.Pointer[series]
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{accounts: make(map[accountKey]*Account)}
}

// Account is the part of a ledger that one owner posts to: the open ids of
// one (kind, owner) pair. It is safe for concurrent use; a nil *Account is
// inert.
type Account struct {
	l     *Ledger
	kind  string
	owner string

	mu   sync.Mutex
	open map[uint64]struct{}
}

// Account returns the ledger's account for (kind, owner), making it on the
// first call; later calls return the same account. The substrate binds its
// account once, when the ledger is installed. A nil ledger returns a nil
// account.
func (l *Ledger) Account(kind, owner string) *Account {
	if l == nil {
		return nil
	}
	k := accountKey{kind, owner}
	l.accMu.Lock()
	defer l.accMu.Unlock()
	a := l.accounts[k]
	if a == nil {
		a = &Account{l: l, kind: kind, owner: owner, open: make(map[uint64]struct{})}
		l.accounts[k] = a
	}
	return a
}

// OnViolation installs a callback invoked synchronously (outside the
// ledger lock) with a description of each violation as it happens; tests
// install t.Error-shaped callbacks here to fail fast on double releases.
func (l *Ledger) OnViolation(f func(string)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.onViolate = f
	l.mu.Unlock()
}

// Instrument wires the ledger into a telemetry registry: a counter of
// detected leaks and violations, and a gauge of currently open resources.
// A nil registry is a no-op.
func (l *Ledger) Instrument(reg *telemetry.Registry) {
	if l == nil || reg == nil {
		return
	}
	t := &series{
		leaked: reg.Counter(MetricLeaked,
			"Resources found leaked (still open at a quiescence check) or released twice."),
		openGauge: reg.Gauge(MetricOpen,
			"Resources currently held open in the ledger."),
	}
	l.accMu.Lock()
	defer l.accMu.Unlock()
	for _, a := range l.accounts {
		a.mu.Lock()
		defer a.mu.Unlock()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tel.Store(t)
	t.openGauge.Set(l.open.Load())
}

// Acquire posts one resource acquisition. Acquiring a resource that is
// already open is a violation (the substrate reused a live id).
func (l *Ledger) Acquire(kind, owner string, id uint64) { l.Account(kind, owner).Acquire(id) }

// Release balances one acquisition. Releasing a resource with no open
// entry is a violation: a double release, or a release of something never
// acquired.
func (l *Ledger) Release(kind, owner string, id uint64) { l.Account(kind, owner).Release(id) }

// Acquire posts the acquisition of resource id. Acquiring an id that is
// already open is a violation (the substrate reused a live id).
func (a *Account) Acquire(id uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.l.acquires.Add(1)
	n := len(a.open)
	a.open[id] = struct{}{}
	dup := len(a.open) == n
	if !dup {
		a.moved(1)
	}
	a.mu.Unlock()
	if dup {
		a.l.violate("ledger: double acquire of %s", a.resource(id))
	}
}

// Release balances the acquisition of resource id. Releasing an id with no
// open entry is a violation: a double release, or a release of something
// never acquired.
func (a *Account) Release(id uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.l.releases.Add(1)
	n := len(a.open)
	delete(a.open, id)
	held := len(a.open) < n
	if held {
		a.moved(-1)
	}
	a.mu.Unlock()
	if !held {
		a.l.violate("ledger: release of %s with no open entry (double release?)", a.resource(id))
	}
}

// moved posts a change of d to the ledger's open count and gauge; caller
// holds a.mu.
func (a *Account) moved(d int64) {
	a.l.open.Add(d)
	if t := a.l.tel.Load(); t != nil {
		t.openGauge.Add(d)
	}
}

func (a *Account) resource(id uint64) Resource {
	return Resource{Kind: a.kind, Owner: a.owner, ID: id}
}

// violate records one violation of resource r and reports it to the
// callback.
func (l *Ledger) violate(format string, r Resource) {
	violation := fmt.Sprintf(format, r)
	l.mu.Lock()
	l.violations = append(l.violations, violation)
	if t := l.tel.Load(); t != nil {
		t.leaked.Inc()
	}
	f := l.onViolate
	l.mu.Unlock()
	if f != nil {
		f(violation)
	}
}

// Open returns the number of currently open resources.
func (l *Ledger) Open() int {
	if l == nil {
		return 0
	}
	return int(l.open.Load())
}

// Counts returns the total acquires and releases posted so far.
func (l *Ledger) Counts() (acquires, releases uint64) {
	if l == nil {
		return 0, 0
	}
	return l.acquires.Load(), l.releases.Load()
}

// Violations returns the violation descriptions recorded so far.
func (l *Ledger) Violations() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.violations...)
}

// CheckEmpty is the quiescence check: with every session terminal, the
// ledger must hold no open resource and no recorded violation. It returns
// an error naming the leaked resources (sorted, bounded) and counts each
// leak on the instrumented leak counter.
func (l *Ledger) CheckEmpty() error {
	if l == nil {
		return nil
	}
	var leaks []string
	l.accMu.Lock()
	for _, a := range l.accounts {
		a.mu.Lock()
		for id := range a.open {
			leaks = append(leaks, a.resource(id).String())
		}
		a.mu.Unlock()
	}
	l.accMu.Unlock()
	l.mu.Lock()
	nviol := len(l.violations)
	if t := l.tel.Load(); t != nil {
		t.leaked.Add(uint64(len(leaks)))
	}
	l.mu.Unlock()
	if len(leaks) == 0 && nviol == 0 {
		return nil
	}
	nleaks := len(leaks)
	sort.Strings(leaks)
	if nleaks > 8 {
		leaks = append(leaks[:8], fmt.Sprintf("... and %d more", nleaks-8))
	}
	return fmt.Errorf("ledger: %d resources leaked, %d violations: %s",
		nleaks, nviol, strings.Join(leaks, ", "))
}
