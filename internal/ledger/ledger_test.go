package ledger

import (
	"strings"
	"testing"

	"qosneg/internal/telemetry"
)

func TestBalancedAccountIsEmpty(t *testing.T) {
	l := New()
	l.Acquire(KindCMFS, "server-1", 1)
	l.Acquire(KindNetwork, "", 1)
	l.Release(KindCMFS, "server-1", 1)
	l.Release(KindNetwork, "", 1)
	if err := l.CheckEmpty(); err != nil {
		t.Fatal(err)
	}
	if a, r := l.Counts(); a != 2 || r != 2 {
		t.Errorf("counts = %d/%d", a, r)
	}
	if l.Open() != 0 {
		t.Errorf("open = %d", l.Open())
	}
}

func TestLeakDetected(t *testing.T) {
	l := New()
	l.Acquire(KindCMFS, "server-1", 7)
	err := l.CheckEmpty()
	if err == nil {
		t.Fatal("leak not detected")
	}
	if !strings.Contains(err.Error(), "cmfs[server-1]/7") {
		t.Errorf("leak not named: %v", err)
	}
}

func TestDoubleReleaseIsViolation(t *testing.T) {
	l := New()
	var seen []string
	l.OnViolation(func(msg string) { seen = append(seen, msg) })
	l.Acquire(KindTransport, "", 3)
	l.Release(KindTransport, "", 3)
	l.Release(KindTransport, "", 3)
	if len(seen) != 1 || !strings.Contains(seen[0], "double release") {
		t.Fatalf("violation callback = %v", seen)
	}
	if got := l.Violations(); len(got) != 1 {
		t.Errorf("violations = %v", got)
	}
	if err := l.CheckEmpty(); err == nil {
		t.Error("violations must fail the quiescence check")
	}
}

func TestDoubleAcquireIsViolation(t *testing.T) {
	l := New()
	l.Acquire(KindNetwork, "", 5)
	l.Acquire(KindNetwork, "", 5)
	if got := l.Violations(); len(got) != 1 || !strings.Contains(got[0], "double acquire") {
		t.Fatalf("violations = %v", got)
	}
}

func TestInstrumentedCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := New()
	l.Instrument(reg)
	l.Acquire(KindCMFS, "server-1", 1)
	l.Acquire(KindCMFS, "server-1", 2)
	l.Release(KindCMFS, "server-1", 1)
	openGauge := reg.Gauge("qosneg_ledger_open_resources", "")
	if openGauge.Value() != 1 {
		t.Errorf("open gauge = %d", openGauge.Value())
	}
	leaked := reg.Counter("qosneg_leaked_reservations_total", "")
	if leaked.Value() != 0 {
		t.Errorf("leaked = %d before check", leaked.Value())
	}
	if err := l.CheckEmpty(); err == nil {
		t.Fatal("leak not detected")
	}
	if leaked.Value() != 1 {
		t.Errorf("leaked = %d after check", leaked.Value())
	}
	// A double release counts immediately.
	l.Release(KindCMFS, "server-1", 1)
	if leaked.Value() != 2 {
		t.Errorf("leaked = %d after double release", leaked.Value())
	}
}

func TestNilLedgerIsInert(t *testing.T) {
	var l *Ledger
	l.Acquire(KindCMFS, "s", 1)
	l.Release(KindCMFS, "s", 1)
	l.Account(KindCMFS, "s").Acquire(1)
	l.Account(KindCMFS, "s").Release(1)
	l.OnViolation(func(string) {})
	l.Instrument(telemetry.NewRegistry())
	if l.Account(KindCMFS, "s") != nil {
		t.Error("nil ledger must hand out nil accounts")
	}
	if l.Open() != 0 || l.Violations() != nil || l.CheckEmpty() != nil {
		t.Error("nil ledger must be inert")
	}
	if a, r := l.Counts(); a != 0 || r != 0 {
		t.Error("nil ledger counts")
	}
}
