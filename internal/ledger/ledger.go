// Package ledger is the resource ledger behind the lifecycle leak checks:
// one view over every resource the QoS manager's commitment step holds —
// CMFS stream reservations and network bandwidth reservations (a transport
// connection is its network reservation) — so a test can assert the
// paper's step-5/step-6 bookkeeping invariant directly:
//
//	all sessions terminal  ⇒  the ledger is empty
//
// The ledger keeps no second copy of a reservation. Each substrate that
// grants one already keeps a table of what it granted, and registers that
// table with the ledger once, when the ledger is installed (cmfs.Server and
// network.Network in SetLedger). The ledger reads the tables when asked:
// Open sums their open counts, Counts their issued ids, and CheckEmpty
// lists their open ids. A grant or a release therefore costs the substrate
// nothing beyond its own table. Ids come from a counter under the
// substrate's own lock, so a substrate cannot grant a live id twice, and
// the ledger does not check for it.
//
// A release with no matching grant is a violation (a double release, or a
// release of something never granted). A substrate that can tell reports
// it through BadRelease, and the ledger reports it immediately through the
// OnViolation callback — the fail-fast half of the check. The slow half,
// leak detection, runs at quiescence via CheckEmpty.
//
// The ledger only reads registered tables; it keeps none of its own. It is
// always on in the test beds (package testbed and the core test fixtures
// install one), and it is nil-safe: every method on a nil *Ledger is a
// no-op.
package ledger

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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

// Resource kinds the substrates register.
const (
	// KindCMFS is a stream reservation on a continuous-media file server;
	// Owner is the server id.
	KindCMFS = "cmfs"
	// KindNetwork is a path bandwidth reservation, which is also what a
	// transport connection holds; Owner is empty.
	KindNetwork = "network"
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

// Table is a record of granted resources the ledger reads: a substrate's
// own reservation table. Both methods run under the table's own lock and
// must not call back into the ledger.
type Table interface {
	// Tally returns how many ids the table has issued and how many of them
	// it holds open, read together.
	Tally() (issued uint64, open int)
	// EachOpen calls f with each id the table holds open.
	EachOpen(f func(id uint64))
}

// tableKey names one table.
type tableKey struct{ kind, owner string }

// Ledger is the view over the registered tables. It is safe for concurrent
// use; the zero value is not usable, build one with New. A nil *Ledger is
// inert.
type Ledger struct {
	// tablesMu guards tables. Lock order: tablesMu, then a table's own
	// lock; mu is taken on its own.
	tablesMu sync.Mutex
	tables   map[tableKey]Table

	// mu guards the violation record, the callback and the leak counter,
	// which is nil until Instrument installs it. Each violation is a release
	// of an id not open, which no table holds; Counts adds them in.
	mu         sync.Mutex
	violations []string
	onViolate  func(string)
	leaked     *telemetry.Counter
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{tables: make(map[tableKey]Table)}
}

// Register makes t the table the ledger reads for (kind, owner). A key
// holds one table: registering it again replaces the one it held.
func (l *Ledger) Register(kind, owner string, t Table) {
	if l == nil {
		return
	}
	l.tablesMu.Lock()
	l.tables[tableKey{kind, owner}] = t
	l.tablesMu.Unlock()
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
// detected leaks and violations, and a gauge of currently open resources,
// read from the tables at each snapshot. A nil registry is a no-op.
func (l *Ledger) Instrument(reg *telemetry.Registry) {
	if l == nil || reg == nil {
		return
	}
	leaked := reg.Counter(MetricLeaked,
		"Resources found leaked (still open at a quiescence check) or released twice.")
	reg.Collect(telemetry.Collector{Name: MetricOpen, Help: "Resources currently held open in the ledger.",
		Gauge: true, Owner: l, Read: func(emit func(string, int64)) { emit("", int64(l.Open())) }})
	l.mu.Lock()
	l.leaked = leaked
	l.mu.Unlock()
}

// Acquire and Release are no-ops kept for the benchmark's ledger leaf until
// ROADMAP item 7a rewrites it: every resource the system grants is read
// from its substrate's table, and the ledger posts nothing.
func (l *Ledger) Acquire(kind, owner string, id uint64) {}

// Release is a no-op; see Acquire.
func (l *Ledger) Release(kind, owner string, id uint64) {}

// BadRelease reports the release of an id the (kind, owner) table does not
// hold: a double release, or a release of something never granted. A
// substrate whose ids are never reused calls it for an unknown release.
func (l *Ledger) BadRelease(kind, owner string, id uint64) {
	if l == nil {
		return
	}
	violation := fmt.Sprintf("ledger: release of %s with no open entry (double release?)", Resource{kind, owner, id})
	l.mu.Lock()
	l.violations = append(l.violations, violation)
	l.leaked.Inc()
	f := l.onViolate
	l.mu.Unlock()
	if f != nil {
		f(violation)
	}
}

// eachTable calls f with every registered table under the tables lock.
func (l *Ledger) eachTable(f func(k tableKey, t Table)) {
	l.tablesMu.Lock()
	defer l.tablesMu.Unlock()
	for k, t := range l.tables {
		f(k, t)
	}
}

// Open returns the number of resources the tables hold open.
func (l *Ledger) Open() int {
	if l == nil {
		return 0
	}
	open := 0
	l.eachTable(func(_ tableKey, t Table) {
		_, n := t.Tally()
		open += n
	})
	return open
}

// Counts returns the acquires and releases so far: each table's issued ids
// are its acquires, and those no longer open its releases, to which each
// violation, a release of an id not open, adds one.
func (l *Ledger) Counts() (acquires, releases uint64) {
	if l == nil {
		return 0, 0
	}
	l.eachTable(func(_ tableKey, t Table) {
		issued, open := t.Tally()
		acquires += issued
		releases += issued - uint64(open)
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	return acquires, releases + uint64(len(l.violations))
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
// tables must hold no open resource and the ledger no recorded violation.
// It returns an error naming the leaked resources (sorted, bounded) and
// counts each leak on the instrumented leak counter.
func (l *Ledger) CheckEmpty() error {
	if l == nil {
		return nil
	}
	var leaks []Resource
	l.eachTable(func(k tableKey, t Table) {
		t.EachOpen(func(id uint64) { leaks = append(leaks, Resource{k.kind, k.owner, id}) })
	})
	l.mu.Lock()
	nviol := len(l.violations)
	l.leaked.Add(uint64(len(leaks)))
	l.mu.Unlock()
	if len(leaks) == 0 && nviol == 0 {
		return nil
	}
	names := make([]string, len(leaks))
	for i, r := range leaks {
		names[i] = r.String()
	}
	sort.Strings(names)
	if n := len(names); n > 8 {
		names = append(names[:8], fmt.Sprintf("... and %d more", n-8))
	}
	return fmt.Errorf("ledger: %d resources leaked, %d violations: %s",
		len(leaks), nviol, strings.Join(names, ", "))
}
