package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/client"
	"qosneg/internal/clock"
	"qosneg/internal/core"
	"qosneg/internal/faults"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
	"qosneg/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "SLO-driven admission control under open-loop overload",
		Paper: "extension; Section 4's FAILEDTRYLATER made load-adaptive",
		Run:   runE19,
	})
}

const (
	e19SLO = 250 * time.Millisecond
	// e19Slots is the admitted concurrency, the AIMD limit's ceiling and
	// floor alike.
	e19Slots = 2
	// e19Idle is how long a probe worker waits after a negotiation that
	// took no virtual time (refused before it reserved anything), so it
	// cannot spin forever at one instant.
	e19Idle = 100 * time.Microsecond
)

type e19Scenario struct {
	name   string
	shape  workload.Shape
	factor float64 // offered load, as a multiple of the probed service rate
	faulty bool
	// cycle is the period of a shaped row's rate envelope; the row's
	// arrivals span two of them.
	cycle time.Duration
}

// e19Tally counts one open loop's outcomes. Its processes run one at a
// time, so it needs no lock.
type e19Tally struct {
	latencies []time.Duration // admitted requests', in virtual time
	good      int
	sheds     int
	badHints  int // sheds whose RetryAfter was not positive
	failures  int
	errs      int
}

func (tl *e19Tally) p99() time.Duration {
	if len(tl.latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), tl.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(99*len(sorted)+99)/100-1]
}

// e19Harness is the E8 substrate on one simulation engine: an admission
// controller gating the manager, and fault weather whose fixed cost per
// Reserve and Connect is a sleep in virtual time (without it the manager
// takes no time at all and no load ever accumulates). Every negotiation
// runs as an engine process.
type e19Harness struct {
	eng  *sim.Engine
	clk  clock.Clock
	bed  *testbed.Bed
	ctrl *admission.Controller
	ids  []media.DocumentID
}

// newE19 builds the harness; every Reserve and Connect takes latency, and
// a Reserve fails with probability reserveFail.
func newE19(reserveFail float64, latency time.Duration) *e19Harness {
	eng := sim.NewEngine()
	h := &e19Harness{eng: eng, clk: clock.Sim(eng)}
	h.ctrl = admission.New(admission.Config{
		SLO: e19SLO, MaxInFlight: e19Slots, MinInFlight: e19Slots, Clock: h.clk,
	})
	inj := faults.New(1996)
	inj.SetClock(h.clk)
	opts := core.DefaultOptions()
	opts.Admission = h.ctrl
	h.bed = testbed.MustNew(testbed.Spec{
		Clients:        4,
		Servers:        3,
		AccessCapacity: 25 * qos.MBitPerSecond,
		Options:        &opts,
		Faults:         inj,
	})
	inj.SetLatency(latency)
	inj.SetReserveFailure(reserveFail)
	for i := 1; i <= 6; i++ {
		id := media.DocumentID(fmt.Sprintf("news-%d", i))
		h.bed.AddNewsArticle(id, fmt.Sprintf("Article %d", i), 2*time.Minute)
		h.ids = append(h.ids, id)
	}
	return h
}

// probe measures the closed-loop service rate over a virtual window: one
// process per admission slot negotiating and rejecting back to back.
func (h *e19Harness) probe(window time.Duration) float64 {
	start := h.eng.Now()
	good := 0
	for w := 0; w < e19Slots; w++ {
		mach, doc := h.bed.Client(w%4+1), h.ids[w%len(h.ids)]
		h.eng.Go(func() {
			for h.eng.Now() < start+window {
				began := h.eng.Now()
				res, err := h.bed.Manager.NegotiateContext(context.Background(), mach, doc, e8Profile())
				if err == nil && res.Status.Reserved() {
					good++
					h.bed.Manager.Reject(res.Session.ID)
				}
				if h.eng.Now() == began {
					h.eng.Sleep(e19Idle)
				}
			}
		})
	}
	h.eng.RunAll()
	return max(float64(good)/(h.eng.Now()-start).Seconds(), 1)
}

// generator is the open-loop request stream of drive at the given base
// rate.
func (h *e19Harness) generator(shape workload.Shape, rate float64) (*workload.Generator, error) {
	return workload.NewGenerator(workload.Spec{
		Seed:             1996,
		MeanInterArrival: time.Duration(float64(time.Second) / rate),
		Shape:            shape,
		Documents:        h.ids,
		Clients:          []client.Machine{h.bed.Client(1), h.bed.Client(2), h.bed.Client(3), h.bed.Client(4)},
		Profiles:         []profile.UserProfile{e8Profile()},
	})
}

// arrivals counts the requests of drive's stream that arrive within span.
func (h *e19Harness) arrivals(shape workload.Shape, rate float64, span time.Duration) (int, error) {
	gen, err := h.generator(shape, rate)
	if err != nil {
		return 0, err
	}
	n := 0
	for at := gen.Next().InterArrival; at < span; at += gen.Next().InterArrival {
		n++
	}
	return n, nil
}

// drive fires count open-loop arrivals at the given rate, each a process
// that negotiates through the admission gate and rejects what it reserved,
// and tallies the outcomes. It returns once the last process has finished,
// with the virtual time the run took.
func (h *e19Harness) drive(shape workload.Shape, rate float64, count int) (*e19Tally, time.Duration, error) {
	gen, err := h.generator(shape, rate)
	if err != nil {
		return nil, 0, err
	}
	tally := &e19Tally{}
	start := h.eng.Now()
	gen.Drive(h.clk, count, func(req workload.Request) {
		h.eng.Go(func() {
			began := h.eng.Now()
			res, err := h.bed.Manager.NegotiateContext(context.Background(), req.Client, req.Document, req.Profile)
			lat := h.eng.Now() - began
			reserved := err == nil && res.Status.Reserved()
			if reserved {
				h.bed.Manager.Reject(res.Session.ID)
			}
			switch {
			case err != nil:
				tally.errs++
			case res.Shed:
				tally.sheds++
				if res.RetryAfter <= 0 {
					tally.badHints++
				}
			case reserved:
				tally.good++
				tally.latencies = append(tally.latencies, lat)
			default:
				tally.failures++
				tally.latencies = append(tally.latencies, lat)
			}
		})
	})
	h.eng.RunAll()
	return tally, h.eng.Now() - start, nil
}

// runE19 is the overload study. The paper's procedure answers
// FAILEDTRYLATER when resources are short; this experiment measures what an
// SLO-driven admission controller adds when the *negotiation machinery
// itself* is the scarce resource: open-loop arrival schedules (Poisson,
// bursty, diurnal) at multiples of the probed service rate, with the
// controller shedding early — FAILEDTRYLATER plus a load-derived retry
// hint — so that the requests it does admit keep their latency. It runs in
// virtual time, so its table is the same on every host.
func runE19(w io.Writer) error {
	scenarios := []e19Scenario{
		{name: "steady 1x", shape: workload.Poisson, factor: 1},
		{name: "steady 10x", shape: workload.Poisson, factor: 10},
		{name: "bursty 10x", shape: workload.Bursty, factor: 10, cycle: time.Second},
		{name: "diurnal 10x", shape: workload.Diurnal, factor: 10, cycle: 2 * time.Second},
		{name: "faulty 10x", shape: workload.Poisson, factor: 10, faulty: true},
	}
	fmt.Fprintf(w, "SLO %s, admitted concurrency capped at %d; open-loop arrivals in virtual time\n",
		e19SLO, e19Slots)
	fmt.Fprintln(w, "(arrivals do not wait for completions) over a Zipf catalog of 6 articles;")
	fmt.Fprintln(w, "every reservation pays a fixed injected latency, the faulty row also fails 10%.")
	fmt.Fprintf(w, "%-12s %8s %9s %9s %7s %10s %10s %11s\n",
		"scenario", "offered", "arrivals", "admitted%", "shed%", "goodput/s", "p99(adm)", "retry-hint")
	for _, sc := range scenarios {
		h := newE19(0, 500*time.Microsecond)
		if sc.faulty {
			h = newE19(0.10, time.Millisecond)
		}
		rate := sc.factor * h.probe(150*time.Millisecond)
		count := max(int(rate*0.6), 200)
		if sc.cycle > 0 {
			// A shaped row ending inside its first burst, or in the rising
			// half of its first period, would not show its shape.
			n, err := h.arrivals(sc.shape, rate, 2*sc.cycle)
			if err != nil {
				return err
			}
			count = n
		}
		tally, elapsed, err := h.drive(sc.shape, rate, count)
		if err != nil {
			return err
		}
		admitted := tally.good + tally.failures
		pct := func(n int) float64 { return 100 * float64(n) / float64(count) }
		fmt.Fprintf(w, "%-12s %7.0f/s %9d %8.1f%% %6.1f%% %10.0f %10s %11s\n",
			sc.name, rate, count, pct(admitted), pct(tally.sheds),
			float64(tally.good)/elapsed.Seconds(),
			tally.p99().Round(time.Millisecond),
			h.ctrl.Stats().RetryHint.Round(10*time.Millisecond))
		if err := h.bed.Ledger.CheckEmpty(); err != nil {
			return fmt.Errorf("LEAK in %s: %w", sc.name, err)
		}
	}
	fmt.Fprintln(w, "ledger: empty after every scenario (all reservations wound down)")
	fmt.Fprintln(w, "expected shape: the controller is a loss system (no queue), so even at 1x the")
	fmt.Fprintln(w, "arrivals that collide with a busy slot are shed (Erlang loss); at 10x the shed")
	fmt.Fprintln(w, "share climbs toward 90%+ while goodput RISES to the service ceiling and the")
	fmt.Fprintln(w, "p99 of admitted requests stays far below the SLO — graceful degradation, not")
	fmt.Fprintln(w, "collapse. The retry hint tracks shed pressure, decaying in quiet spells.")
	return nil
}
