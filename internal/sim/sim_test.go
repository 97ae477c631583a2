package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestEventsFireInOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.MustSchedule(3*time.Second, func() { got = append(got, 3) })
	e.MustSchedule(1*time.Second, func() { got = append(got, 1) })
	e.MustSchedule(2*time.Second, func() { got = append(got, 2) })
	if n := e.RunAll(); n != 3 {
		t.Fatalf("fired %d events", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v", got)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("final time %v", e.Now())
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustSchedule(time.Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(-time.Second, func() {}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.MustSchedule(time.Second, func() {
		times = append(times, e.Now())
		e.MustSchedule(2*time.Second, func() {
			times = append(times, e.Now())
		})
	})
	e.RunAll()
	if len(times) != 2 || times[0] != time.Second || times[1] != 3*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 1; i <= 5; i++ {
		e.MustSchedule(time.Duration(i)*time.Second, func() { fired++ })
	}
	if n := e.Run(3 * time.Second); n != 3 {
		t.Errorf("Run fired %d events", n)
	}
	if fired != 3 {
		t.Errorf("fired = %d", fired)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("clock at %v", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d", e.Pending())
	}
	// Horizon beyond the last event advances the clock to the horizon.
	e.Run(10 * time.Second)
	if e.Now() != 10*time.Second || e.Pending() != 0 {
		t.Errorf("after drain: now=%v pending=%d", e.Now(), e.Pending())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.MustSchedule(time.Second, func() { fired = true })
	if !h.Stop() {
		t.Error("fresh handle reports already stopped")
	}
	if h.Stop() {
		t.Error("stopped handle reports live")
	}
	e.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
	if (Handle{}).Stop() {
		t.Error("zero handle counts as pending")
	}
	fh := e.MustSchedule(0, func() {})
	e.RunAll()
	if fh.Stop() {
		t.Error("fired handle reports pending")
	}
}

func TestCancelInterleavedWithRun(t *testing.T) {
	e := NewEngine()
	var got []string
	var h2 Handle
	e.MustSchedule(time.Second, func() {
		got = append(got, "a")
		h2.Stop() // cancel an event already queued for later
	})
	h2 = e.MustSchedule(2*time.Second, func() { got = append(got, "b") })
	e.MustSchedule(3*time.Second, func() { got = append(got, "c") })
	e.RunAll()
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("got = %v", got)
	}
}

func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []time.Duration {
		e := NewEngine()
		r := NewRand(seed)
		var out []time.Duration
		var arrive func()
		arrive = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				e.MustSchedule(r.Exp(time.Second), arrive)
			}
		}
		e.MustSchedule(0, arrive)
		e.RunAll()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(7)
	// Exponential mean sanity: 10k draws with mean 1s should average
	// within 5%.
	var sum time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		sum += r.Exp(time.Second)
	}
	mean := float64(sum) / n / float64(time.Second)
	if mean < 0.95 || mean > 1.05 {
		t.Errorf("exponential mean = %.3f s", mean)
	}
	// Zipf skew: rank 0 must dominate.
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[r.Zipf(10, 1.2)]++
	}
	if counts[0] <= counts[5] {
		t.Errorf("zipf not skewed: %v", counts)
	}
	// Perm is a permutation.
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
	if r.Intn(1) != 0 {
		t.Error("Intn(1) must be 0")
	}
	if f := r.Float64(); f < 0 || f >= 1 {
		t.Errorf("Float64 = %g", f)
	}
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty calendar returned true")
	}
	if e.Now() != 0 {
		t.Error("clock moved without events")
	}
}

func TestProcessesInterleaveByWakeTime(t *testing.T) {
	e := NewEngine()
	var got []string
	proc := func(name string, naps ...time.Duration) func() {
		return func() {
			for _, d := range naps {
				e.Sleep(d)
				got = append(got, fmt.Sprintf("%s@%v", name, e.Now()))
			}
		}
	}
	// a wakes at 1s, 3s and 4s; b at 2s, 3s and 4s: ties at 3s and 4s go to
	// a, whose wake was scheduled first.
	e.Go(proc("a", time.Second, 2*time.Second, time.Second))
	e.Go(proc("b", 2*time.Second, time.Second, time.Second))
	e.RunAll()
	want := "[a@1s b@2s a@3s b@3s a@4s b@4s]"
	if s := fmt.Sprint(got); s != want {
		t.Fatalf("wake order %s, want %s", s, want)
	}
}

func TestSleepZeroResumesAfterCurrentEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	e.MustSchedule(time.Second, func() {
		e.Go(func() {
			got = append(got, "process")
			e.Sleep(0)
			got = append(got, fmt.Sprintf("woken@%v", e.Now()))
		})
		got = append(got, "event")
	})
	e.MustSchedule(time.Second, func() { got = append(got, "due") })
	e.RunAll()
	if s, want := fmt.Sprint(got), "[process event due woken@1s]"; s != want {
		t.Fatalf("order %s, want %s", s, want)
	}
}

func TestProcessWithoutSleepFinishesInGo(t *testing.T) {
	e := NewEngine()
	done, inner := false, false
	e.Go(func() {
		e.Go(func() { inner = true })
		done = inner
	})
	if !done {
		t.Fatal("a process that never sleeps had not finished when Go returned")
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events pending after a process that never slept", e.Pending())
	}
}

func TestNestedProcessSleeps(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Go(func() {
		e.Go(func() {
			e.Sleep(2 * time.Second)
			got = append(got, fmt.Sprintf("child@%v", e.Now()))
		})
		got = append(got, "parent")
		e.Sleep(time.Second)
		got = append(got, fmt.Sprintf("parent@%v", e.Now()))
	})
	e.RunAll()
	if s, want := fmt.Sprint(got), "[parent parent@1s child@2s]"; s != want {
		t.Fatalf("order %s, want %s", s, want)
	}
}

func TestSleepOutsideProcessPanics(t *testing.T) {
	panics := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	e := NewEngine()
	if panics(func() { e.Sleep(time.Second) }) == nil {
		t.Error("Sleep outside any process did not panic")
	}
	var inEvent any
	e.MustSchedule(time.Second, func() { inEvent = panics(func() { e.Sleep(time.Second) }) })
	e.RunAll()
	if inEvent == nil {
		t.Error("Sleep in an event callback did not panic")
	}
	var negative any
	e.Go(func() { negative = panics(func() { e.Sleep(-time.Second) }) })
	if negative == nil {
		t.Error("Sleep with a negative duration did not panic")
	}
}
