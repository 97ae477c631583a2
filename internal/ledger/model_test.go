package ledger

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"qosneg/internal/telemetry"
)

// refLedger is the reference model of the ledger: one map keyed by the
// whole Resource under one lock, as the ledger was before it was split into
// per-owner accounts. It keeps the same counts, violation texts and leak
// report.
type refLedger struct {
	open       map[Resource]bool
	acquires   uint64
	releases   uint64
	violations []string
	leaked     uint64
}

func newRefLedger() *refLedger { return &refLedger{open: make(map[Resource]bool)} }

func (l *refLedger) Acquire(kind, owner string, id uint64) {
	r := Resource{Kind: kind, Owner: owner, ID: id}
	l.acquires++
	if l.open[r] {
		l.violations = append(l.violations, fmt.Sprintf("ledger: double acquire of %s", r))
		l.leaked++
	}
	l.open[r] = true
}

func (l *refLedger) Release(kind, owner string, id uint64) {
	r := Resource{Kind: kind, Owner: owner, ID: id}
	l.releases++
	if !l.open[r] {
		l.violations = append(l.violations, fmt.Sprintf("ledger: release of %s with no open entry (double release?)", r))
		l.leaked++
	}
	delete(l.open, r)
}

func (l *refLedger) CheckEmpty() error {
	var leaks []string
	for r := range l.open {
		leaks = append(leaks, r.String())
	}
	nviol := len(l.violations)
	l.leaked += uint64(len(leaks))
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

// modelAccounts are the (kind, owner) pairs a scenario posts to: two
// servers, so one kind spans two accounts, and two owner-less kinds.
var modelAccounts = [...]accountKey{
	{KindCMFS, "server-1"}, {KindCMFS, "server-2"}, {KindNetwork, ""}, {"leaf", ""},
}

// ledgerOp is one call in a ledger scenario.
type ledgerOp int

const (
	opAcquire       ledgerOp = iota // a fresh id
	opRelease                       // an open id
	opDoubleAcquire                 // an id already open
	opDoubleRelease                 // an id not open
	opCheckEmpty
	nLedgerOps
)

type ledgerStep struct {
	Op      ledgerOp
	Account int
	// Pick chooses among the account's open ids (or the ids it has
	// released, for a double release).
	Pick int
}

type ledgerScenario struct{ Steps []ledgerStep }

// Generate draws 80 calls, mostly balanced acquires and releases with the
// odd violation and quiescence check, so leaks of more than eight entries
// (the report's bound) occur as well as empty ledgers.
func (ledgerScenario) Generate(rng *rand.Rand, _ int) reflect.Value {
	weights := [nLedgerOps]int{opAcquire: 10, opRelease: 7, opDoubleAcquire: 1, opDoubleRelease: 1, opCheckEmpty: 2}
	total := 0
	for _, w := range weights {
		total += w
	}
	var sc ledgerScenario
	for i := 0; i < 80; i++ {
		var st ledgerStep
		for pick := rng.Intn(total); pick >= weights[st.Op]; st.Op++ {
			pick -= weights[st.Op]
		}
		st.Account = rng.Intn(len(modelAccounts))
		st.Pick = rng.Intn(1 << 16)
		sc.Steps = append(sc.Steps, st)
	}
	return reflect.ValueOf(sc)
}

// TestLedgerMatchesModel is the differential test of the per-owner
// accounts: random call sequences over several accounts, posted once
// through account handles and once through the Ledger wrappers, leave both
// ledgers agreeing with the single-map reference after every call on Open,
// Counts, the violation texts, CheckEmpty's text and the instrumented leak
// counter and open gauge.
func TestLedgerMatchesModel(t *testing.T) {
	var violations, leakReports, boundedReports int
	f := func(sc ledgerScenario) bool {
		ref := newRefLedger()
		viaAccount, viaWrapper := New(), New()
		regA, regW := telemetry.NewRegistry(), telemetry.NewRegistry()
		viaAccount.Instrument(regA)
		viaWrapper.Instrument(regW)
		var accts [len(modelAccounts)]*account
		for i, k := range modelAccounts {
			accts[i] = viaAccount.account(k.kind, k.owner)
		}
		open := make([][]uint64, len(modelAccounts))
		var closed [len(modelAccounts)][]uint64
		next := uint64(0)
		post := func(acquire bool, i int, id uint64) {
			k := modelAccounts[i]
			if acquire {
				ref.Acquire(k.kind, k.owner, id)
				accts[i].acquire(id)
				viaWrapper.Acquire(k.kind, k.owner, id)
				return
			}
			ref.Release(k.kind, k.owner, id)
			accts[i].release(id)
			viaWrapper.Release(k.kind, k.owner, id)
		}
		for n, st := range sc.Steps {
			i := st.Account
			switch st.Op {
			case opAcquire:
				next++
				post(true, i, next)
				open[i] = append(open[i], next)
			case opRelease:
				if len(open[i]) == 0 {
					continue
				}
				j := st.Pick % len(open[i])
				id := open[i][j]
				open[i] = append(open[i][:j], open[i][j+1:]...)
				closed[i] = append(closed[i], id)
				post(false, i, id)
			case opDoubleAcquire:
				if len(open[i]) == 0 {
					continue
				}
				post(true, i, open[i][st.Pick%len(open[i])])
			case opDoubleRelease:
				// A released id, or one never acquired.
				id := uint64(1<<20 + st.Pick)
				if len(closed[i]) > 0 && st.Pick%2 == 0 {
					id = closed[i][st.Pick%len(closed[i])]
				}
				post(false, i, id)
			case opCheckEmpty:
				want := fmt.Sprint(ref.CheckEmpty())
				for name, l := range map[string]*Ledger{"account": viaAccount, "wrapper": viaWrapper} {
					if got := fmt.Sprint(l.CheckEmpty()); got != want {
						t.Errorf("step %d via %s: CheckEmpty =\n\t%s\nreference\n\t%s", n, name, got, want)
						return false
					}
				}
				if strings.Contains(want, "leaked") {
					leakReports++
				}
				if strings.Contains(want, "more") {
					boundedReports++
				}
			}
			for name, l := range map[string]*Ledger{"account": viaAccount, "wrapper": viaWrapper} {
				if got, want := l.Open(), len(ref.open); got != want {
					t.Errorf("step %d via %s: Open = %d, reference %d", n, name, got, want)
					return false
				}
				if a, r := l.Counts(); a != ref.acquires || r != ref.releases {
					t.Errorf("step %d via %s: Counts = %d/%d, reference %d/%d", n, name, a, r, ref.acquires, ref.releases)
					return false
				}
				if got := l.Violations(); !reflect.DeepEqual(got, ref.violations) {
					t.Errorf("step %d via %s: Violations =\n\t%q\nreference\n\t%q", n, name, got, ref.violations)
					return false
				}
			}
			for name, reg := range map[string]*telemetry.Registry{"account": regA, "wrapper": regW} {
				if got := reg.Counter(MetricLeaked, "").Value(); got != ref.leaked {
					t.Errorf("step %d via %s: leak counter = %d, reference %d", n, name, got, ref.leaked)
					return false
				}
				if got := openGauge(reg); got != int64(len(ref.open)) {
					t.Errorf("step %d via %s: open gauge = %d, reference %d", n, name, got, len(ref.open))
					return false
				}
			}
		}
		violations += len(ref.violations)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Fatal(err)
	}
	// The generator must reach the cases the test exists for.
	if violations == 0 || leakReports == 0 || boundedReports == 0 {
		t.Fatalf("scenarios reached %d violations, %d leak reports, %d of them bounded; all must occur",
			violations, leakReports, boundedReports)
	}
}

// TestAccountAllocsNothing is the ledger's allocation gate: on a warm
// account an acquire and its release allocate nothing.
func TestAccountAllocsNothing(t *testing.T) {
	l := New()
	a := l.account(KindCMFS, "server-1")
	a.acquire(1)
	a.release(1)
	id := uint64(1)
	if n := testing.AllocsPerRun(1000, func() {
		id++
		a.acquire(id)
		a.release(id)
	}); n != 0 {
		t.Errorf("Acquire+Release on a warm account = %v allocations, want 0", n)
	}
	if err := l.CheckEmpty(); err != nil {
		t.Fatal(err)
	}
}

// TestAccountIsBoundOnce holds account to one table per (kind, owner):
// posts through a bound handle and through the wrappers meet in it.
func TestAccountIsBoundOnce(t *testing.T) {
	l := New()
	a := l.account(KindCMFS, "server-1")
	if l.account(KindCMFS, "server-1") != a {
		t.Fatal("a second account call made a second account")
	}
	if l.account(KindCMFS, "server-2") == a || l.account(KindNetwork, "") == a {
		t.Fatal("distinct (kind, owner) pairs share an account")
	}
	a.acquire(4)
	l.Release(KindCMFS, "server-1", 4)
	if err := l.CheckEmpty(); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentMidTrafficIsExact installs telemetry while accounts post
// concurrently: the open gauge must still equal the open count afterwards,
// each post counted once, whichever side of the installation it fell on.
func TestInstrumentMidTrafficIsExact(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for w, k := range modelAccounts {
		a := l.account(k.kind, k.owner)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(1); i <= 2000; i++ {
				a.acquire(i)
				if i%100 != 0 {
					a.release(i)
				}
			}
		}(w)
	}
	reg := telemetry.NewRegistry()
	l.Instrument(reg)
	wg.Wait()
	if got, want := openGauge(reg), int64(l.Open()); got != want || want != 4*20 {
		t.Fatalf("open gauge = %d, Open = %d, want both %d", got, want, 4*20)
	}
}
