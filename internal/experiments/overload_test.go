package experiments

import (
	"testing"
	"time"

	"qosneg/internal/workload"
)

// TestOverloadGracefulDegradation holds E19's harness to the graceful-
// degradation contract at full size: 100 000 Poisson arrivals at 10× the
// probed service rate, with 2% of reservations failing. The controller must
// shed, every shed with a usable RetryAfter hint, while admitted requests
// keep their p99 within the SLO and goodput stays within 20% of the
// reference taken just past saturation; afterwards nothing is reserved and
// nothing admitted. It runs in virtual time, so the figures are the same in
// every build, -race included.
func TestOverloadGracefulDegradation(t *testing.T) {
	h := newE19(0.02, time.Millisecond)
	peak := h.probe(time.Second)
	t.Logf("closed-loop probe: %.0f sessions/s", peak)

	// Reference goodput at 2× the probed rate, where the goodput-vs-load
	// curve tops out, through the same open loop as the overload phase.
	ref, refElapsed, err := h.drive(workload.Poisson, 2*peak, 4000)
	if err != nil {
		t.Fatal(err)
	}
	refGoodput := float64(ref.good) / refElapsed.Seconds()

	const count = 100_000
	tally, elapsed, err := h.drive(workload.Poisson, 10*peak, count)
	if err != nil {
		t.Fatal(err)
	}
	goodput := float64(tally.good) / elapsed.Seconds()
	t.Logf("reference goodput at 2×: %.0f/s; at 10×: %d arrivals over %v: good %d (%.0f/s), sheds %d, failures %d, admitted p99 %v",
		refGoodput, count, elapsed, tally.good, goodput, tally.sheds, tally.failures, tally.p99())

	if tally.sheds == 0 {
		t.Error("10× overload produced no sheds: the open loop is not overloading or the controller is inert")
	}
	if tally.badHints > 0 {
		t.Errorf("%d sheds carried a non-positive RetryAfter", tally.badHints)
	}
	if tally.errs > 0 {
		t.Errorf("%d negotiations returned an error", tally.errs)
	}
	if len(tally.latencies) == 0 {
		t.Fatal("no request was ever admitted")
	}
	if p99 := tally.p99(); p99 > e19SLO {
		t.Errorf("admitted-request p99 %v breaches the %v SLO under overload", p99, e19SLO)
	}
	if goodput < 0.8*refGoodput {
		t.Errorf("goodput %.0f/s collapsed below the %.0f/s floor (80%% of reference goodput)", goodput, 0.8*refGoodput)
	}
	if err := h.bed.Ledger.CheckEmpty(); err != nil {
		t.Errorf("resource ledger after the run: %v", err)
	}
	if n := h.ctrl.Stats().InFlight; n != 0 {
		t.Errorf("controller reports %d in flight after the run", n)
	}
}

// TestE19ProbeTerminatesWithoutLatency: with no injected latency every
// negotiation takes no virtual time, so a probe worker must still move the
// clock on, or its window never ends.
func TestE19ProbeTerminatesWithoutLatency(t *testing.T) {
	h := newE19(0, 0)
	window := 10 * time.Millisecond
	rate := h.probe(window)
	if want := float64(e19Slots) / e19Idle.Seconds(); rate != want {
		t.Errorf("probe rate %.0f/s, want one reservation per slot per idle step, %.0f/s", rate, want)
	}
	if err := h.bed.Ledger.CheckEmpty(); err != nil {
		t.Errorf("resource ledger after the probe: %v", err)
	}
}
