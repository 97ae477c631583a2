package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/client"
	"qosneg/internal/faults"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
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

const e19SLO = 250 * time.Millisecond

type e19Scenario struct {
	name   string
	shape  workload.Shape
	factor float64 // offered load, as a multiple of the probed service rate
	faulty bool
}

type e19Tally struct {
	mu        sync.Mutex
	latencies []time.Duration
	good      int
	sheds     int
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

// e19Bed assembles the E8 substrate with an admission controller on the
// fleet router and the standard fault weather: a fixed per-reservation cost so
// negotiations take real time (without it the manager finishes in
// microseconds and no load ever accumulates).
func e19Bed(faulty bool) (*testbed.Bed, []media.DocumentID, *admission.Controller) {
	ctrl := admission.New(admission.Config{
		SLO:         e19SLO,
		MaxInFlight: runtime.GOMAXPROCS(0),
	})
	inj := faults.New(1996)
	bed := testbed.MustNew(testbed.Spec{
		Clients:        4,
		Servers:        3,
		AccessCapacity: 25 * qos.MBitPerSecond,
		Admission:      ctrl,
		Faults:         inj,
	})
	ctrl.SetOccupancy(bed.Ledger.Open)
	inj.SetLatency(500 * time.Microsecond)
	if faulty {
		inj.SetReserveFailure(0.10)
		inj.SetLatency(time.Millisecond)
	}
	var ids []media.DocumentID
	for i := 1; i <= 6; i++ {
		id := media.DocumentID(fmt.Sprintf("news-%d", i))
		bed.AddNewsArticle(id, fmt.Sprintf("Article %d", i), 2*time.Minute)
		ids = append(ids, id)
	}
	return bed, ids, ctrl
}

// e19Probe measures the closed-loop service rate: one worker per admission
// slot negotiating and rejecting as fast as the manager allows.
func e19Probe(bed *testbed.Bed, ids []media.DocumentID, dur time.Duration) float64 {
	workers := runtime.GOMAXPROCS(0)
	u := e8Profile()
	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	var mu sync.Mutex
	good := 0
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mach := bed.Client(w%4 + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := bed.Manager.NegotiateContext(context.Background(), mach, ids[w%len(ids)], u)
				if err == nil && res.Status.Reserved() {
					mu.Lock()
					good++
					mu.Unlock()
					bed.Manager.Reject(res.Session.ID)
				}
			}
		}(w)
	}
	wg.Wait()
	rate := float64(good) / time.Since(start).Seconds()
	if rate < 1 {
		rate = 1
	}
	return rate
}

// e19Drive fires count open-loop arrivals at the given rate straight into
// the manager and tallies the outcomes.
func e19Drive(bed *testbed.Bed, ids []media.DocumentID, shape workload.Shape, rate float64, count int) (*e19Tally, time.Duration, error) {
	ol, err := workload.NewOpenLoop(workload.OpenLoopSpec{
		Spec: workload.Spec{
			Seed:             1996,
			MeanInterArrival: time.Duration(float64(time.Second) / rate),
			Documents:        ids,
			Clients:          e19Clients(bed),
			Profiles:         []profile.UserProfile{e8Profile()},
		},
		Shape: shape,
	})
	if err != nil {
		return nil, 0, err
	}
	tally := &e19Tally{}
	start := time.Now()
	err = ol.Run(context.Background(), count, func(req workload.Request) {
		begin := time.Now()
		res, err := bed.Manager.NegotiateContext(context.Background(), req.Client, req.Document, req.Profile)
		lat := time.Since(begin)
		reserved := err == nil && res.Status.Reserved()
		if reserved {
			bed.Manager.Reject(res.Session.ID)
		}
		tally.mu.Lock()
		defer tally.mu.Unlock()
		switch {
		case err != nil:
			tally.errs++
		case res.Shed:
			tally.sheds++
		case reserved:
			tally.good++
			tally.latencies = append(tally.latencies, lat)
		default:
			tally.failures++
			tally.latencies = append(tally.latencies, lat)
		}
	})
	return tally, time.Since(start), err
}

func e19Clients(bed *testbed.Bed) []client.Machine {
	var out []client.Machine
	for i := 1; i <= 4; i++ {
		out = append(out, bed.Client(i))
	}
	return out
}

// runE19 is the overload study. The paper's procedure answers
// FAILEDTRYLATER when resources are short; this experiment measures what an
// SLO-driven admission controller adds when the *negotiation machinery
// itself* is the scarce resource: open-loop arrival schedules (Poisson,
// bursty, diurnal) at multiples of the probed service rate, with the
// controller shedding early — FAILEDTRYLATER plus a load-derived retry
// hint — so that the requests it does admit keep their latency.
func runE19(w io.Writer) error {
	scenarios := []e19Scenario{
		{name: "steady 1x", shape: workload.Poisson, factor: 1},
		{name: "steady 10x", shape: workload.Poisson, factor: 10},
		{name: "bursty 10x", shape: workload.Bursty, factor: 10},
		{name: "diurnal 10x", shape: workload.Diurnal, factor: 10},
		{name: "faulty 10x", shape: workload.Poisson, factor: 10, faulty: true},
	}
	fmt.Fprintf(w, "SLO %s, admitted concurrency capped at GOMAXPROCS=%d; open-loop arrivals\n",
		e19SLO, runtime.GOMAXPROCS(0))
	fmt.Fprintln(w, "(arrivals do not wait for completions) over a Zipf catalog of 6 articles;")
	fmt.Fprintln(w, "every reservation pays a fixed injected latency, the faulty row also fails 10%.")
	fmt.Fprintf(w, "%-12s %8s %9s %9s %7s %10s %10s %11s\n",
		"scenario", "offered", "arrivals", "admitted%", "shed%", "goodput/s", "p99(adm)", "retry-hint")
	for _, sc := range scenarios {
		bed, ids, ctrl := e19Bed(sc.faulty)
		peak := e19Probe(bed, ids, 150*time.Millisecond)
		rate := sc.factor * peak
		count := int(rate * 0.6)
		if count < 200 {
			count = 200
		}
		tally, elapsed, err := e19Drive(bed, ids, sc.shape, rate, count)
		if err != nil {
			return err
		}
		admitted := tally.good + tally.failures
		pct := func(n int) float64 { return 100 * float64(n) / float64(count) }
		fmt.Fprintf(w, "%-12s %7.0f/s %9d %8.1f%% %6.1f%% %10.0f %10s %11s\n",
			sc.name, rate, count, pct(admitted), pct(tally.sheds),
			float64(tally.good)/elapsed.Seconds(),
			tally.p99().Round(time.Millisecond),
			ctrl.Stats().RetryHint.Round(10*time.Millisecond))
		if err := bed.Ledger.CheckEmpty(); err != nil {
			fmt.Fprintf(w, "  LEAK in %s: %v\n", sc.name, err)
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
