package core_test

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/metric_surface.golden from this run")

// reserveHook is a media server that runs fire, once, inside its next
// Reserve: a transition landed in the unlock window of the procedure that
// is committing.
type reserveHook struct {
	core.MediaServer
	mu   *sync.Mutex
	fire *func()
}

func (h reserveHook) Reserve(q qos.NetworkQoS) (cmfs.Reservation, error) {
	h.mu.Lock()
	f := *h.fire
	*h.fire = nil
	h.mu.Unlock()
	if f != nil {
		f()
	}
	return h.MediaServer.Reserve(q)
}

// TestMetricSurface runs one scripted, sequential day of a manager with
// admission control, instrumented as qosneg.New instruments a system,
// and compares every counter and gauge series (name, labels, value) and
// every HELP/TYPE line of the Prometheus exposition with
// testdata/metric_surface.golden. The script covers negotiate, confirm,
// complete, reject, an admission shed, an adaptation, a stale install, an
// offer-cache invalidation, and a breaker trip and its recovery, so the
// file is the exposed surface of every one of those facts. Histogram
// samples are timings and are left out; their preambles are kept.
func TestMetricSurface(t *testing.T) {
	reg := telemetry.NewRegistry()
	inj := faults.New(1)
	opts := core.DefaultOptions()
	opts.Metrics = reg
	// The cooldown outlasts every scripted phase that runs under a
	// quarantine, however slow the machine; the script sleeps it out twice.
	const cooldown = 500 * time.Millisecond
	opts.Health = core.HealthPolicy{FailureThreshold: 3, Cooldown: cooldown, RetryAfter: time.Millisecond}
	ctrl := admission.New(admission.Config{MaxInFlight: 1, MinInFlight: 1, Clock: clock.Sim(sim.NewEngine())})
	opts.Admission = ctrl
	bed := testbed.MustNew(testbed.Spec{Faults: inj, Options: &opts})
	ctrl.Instrument(reg)
	for _, id := range bed.ServerIDs() {
		bed.Servers[id].Instrument(reg)
	}
	bed.Network.Instrument(reg)
	bed.Ledger.Instrument(reg)
	var hookMu sync.Mutex
	var fire func()
	for _, s := range inj.Servers() {
		bed.Manager.AddServer(reserveHook{MediaServer: s, mu: &hookMu, fire: &fire}, s.Node())
	}
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	negotiate := func() *core.Session {
		t.Helper()
		res, err := bed.Manager.NegotiateContext(ctx, bed.Client(1), "news-1", chaosProfile())
		if err != nil {
			t.Fatal(err)
		}
		return res.Session
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Negotiate, confirm and complete; negotiate and reject.
	s := negotiate()
	must(bed.Manager.Confirm(s.ID))
	must(bed.Manager.Advance(s.ID, time.Minute))
	must(bed.Manager.Complete(s.ID))
	must(bed.Manager.Reject(negotiate().ID))

	// An admission shed: the controller's one slot is held.
	release, _, ok := ctrl.Admit()
	if !ok {
		t.Fatal("could not pin the controller's only slot")
	}
	if res, err := bed.Manager.NegotiateContext(ctx, bed.Client(1), "news-1", chaosProfile()); err != nil || !res.Shed {
		t.Fatalf("pinned controller: %+v, %v; want a shed", res, err)
	}
	release()

	// An adaptation: a playing session's server degrades.
	playing := negotiate()
	must(bed.Manager.Confirm(playing.ID))
	victim := playing.Current.Choices[0].Variant.Server
	must(bed.Servers[victim].SetDegradation(0.99))
	if _, err := bed.Manager.Adapt(playing.ID); err != nil {
		t.Logf("adapt: %v", err)
	}
	must(bed.Servers[victim].SetDegradation(0))

	// A stale install: the session is aborted while its renegotiation
	// commits.
	reserved := negotiate()
	hookMu.Lock()
	fire = func() { bed.Manager.Abort(reserved.ID) }
	hookMu.Unlock()
	if _, err := bed.Manager.RenegotiateContext(ctx, reserved.ID, chaosProfile()); err == nil {
		t.Fatal("renegotiation installed on an aborted session")
	}

	// An offer-cache invalidation: a tariff change stales the memoized
	// candidate sets.
	p := cost.DefaultPricing()
	p.GuaranteedMarkupPercent += 10
	bed.Manager.SetPricing(p)
	must(bed.Manager.Reject(negotiate().ID))

	// The adaptation's capacity failures on the degraded victim tripped
	// its breaker. Once that quarantine runs out, the victim crashes: the
	// next commit on it trips the breaker again at once. It restarts, the
	// quarantine runs out, and the next commit on it clears the breaker.
	wait := func() {
		time.Sleep(cooldown + 10*time.Millisecond)
		if _, q := bed.Manager.Quarantined(victim); q {
			t.Fatalf("%s still quarantined after its cooldown", victim)
		}
	}
	wait()
	inj.Crash(victim)
	for i := 0; i < 4; i++ {
		if sess := negotiate(); sess != nil {
			must(bed.Manager.Reject(sess.ID))
		}
	}
	inj.Restart(victim)
	wait()
	for i := 0; i < 4; i++ {
		must(bed.Manager.Reject(negotiate().ID))
	}
	must(bed.Manager.Abort(playing.ID))
	must(bed.Ledger.CheckEmpty())

	got := metricSurface(t, reg)
	const golden = "testdata/metric_surface.golden"
	if *updateSurface {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(golden, []byte(got), 0o644))
	}
	want, err := os.ReadFile(golden)
	must(err)
	// The cache-entries gauge reads what Stats reads.
	if line := fmt.Sprintf("\n%s %d\n", core.MetricOfferCacheEntries, bed.Manager.Stats().OfferCacheEntries); !strings.Contains(got, line) {
		t.Errorf("exposition lacks %q", strings.TrimSpace(line))
	}
	if got != string(want) {
		t.Errorf("metric surface moved (rerun with -update to accept):\n%s", lineDiff(string(want), got))
	}
}

// metricSurface renders the registry's Prometheus exposition without the
// histogram samples.
func metricSurface(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var hist []string
	for _, h := range reg.Snapshot().Histograms {
		hist = append(hist, h.Name+"_")
	}
	var out strings.Builder
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		sample := !strings.HasPrefix(line, "#")
		for _, h := range hist {
			if sample && strings.HasPrefix(line, h) {
				line = ""
			}
		}
		if line != "" {
			out.WriteString(line + "\n")
		}
	}
	return out.String()
}

// lineDiff lists the lines only one side has, in order.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	if b.Len() == 0 {
		return "(same lines, different order)\n"
	}
	return b.String()
}
