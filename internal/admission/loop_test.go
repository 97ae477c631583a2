package admission

import (
	"testing"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/sim"
)

// The control-loop tests run the controller against a server that slows
// as it is shared: an admitted request holds its slot for serviceTime times
// the requests in flight when it was admitted, itself included. Past knee
// requests in flight, latency breaches the SLO.
const (
	loopSLO     = 250 * time.Millisecond
	serviceTime = 20 * time.Millisecond
	knee        = int(loopSLO / serviceTime)
	loopMax     = 16
	loopMin     = 2
	// quietGap spaces the arrivals after the step: light load, one request
	// in flight at a time, so the controller keeps observing healthy
	// latencies.
	quietGap  = 50 * time.Millisecond
	sampleGap = 10 * time.Millisecond
)

// loopSample is the controller's state at one instant of a run.
type loopSample struct {
	at    time.Duration
	limit int
	hint  time.Duration
	sheds uint64
}

// stepLoad offers one arrival per gap until stepEnd, then one per quietGap
// until horizon, all in virtual time, and samples the controller every
// sampleGap.
func stepLoad(gap, stepEnd, horizon time.Duration) []loopSample {
	eng := sim.NewEngine()
	c := New(Config{SLO: loopSLO, MaxInFlight: loopMax, MinInFlight: loopMin, Clock: clock.Sim(eng)})
	var arrive func()
	arrive = func() {
		if eng.Now() >= stepEnd {
			gap = quietGap
		}
		if eng.Now()+gap < horizon {
			eng.MustSchedule(gap, arrive)
		}
		if release, _, ok := c.Admit(); ok {
			eng.MustSchedule(serviceTime*time.Duration(c.Stats().InFlight), release)
		}
	}
	var out []loopSample
	var sample func()
	sample = func() {
		st := c.Stats()
		out = append(out, loopSample{at: eng.Now(), limit: st.Limit, hint: st.RetryHint, sheds: st.Sheds})
		if eng.Now()+sampleGap <= horizon {
			eng.MustSchedule(sampleGap, sample)
		}
	}
	eng.MustSchedule(0, arrive)
	eng.MustSchedule(0, sample)
	eng.RunAll()
	return out
}

// TestControlLoopUnderStepLoad holds the AIMD limit and the MIAD hint to
// their control-loop properties under a step load: 1000 arrivals/s, twenty
// times what the server sustains inside the SLO, for 10 s of virtual time,
// then light load.
func TestControlLoopUnderStepLoad(t *testing.T) {
	const stepEnd, horizon = 10 * time.Second, 20 * time.Second
	trace := stepLoad(time.Millisecond, stepEnd, horizon)

	// The limit settles in [loopMin, knee+2] within one window of the step
	// and stays there while the step lasts. knee+2, not knee+1: a
	// breaching request completes only after its latency, longer than
	// adjustWait, so one more increase can land before the breach is seen.
	top := knee + 2
	settled := -1
	probed := 0
	for i, s := range trace {
		if s.at >= stepEnd {
			break
		}
		if settled < 0 && s.limit <= top {
			settled = i
		}
		if settled >= 0 {
			if s.limit < loopMin || s.limit > top {
				t.Fatalf("at %v the limit is %d, outside the band [%d, %d]", s.at, s.limit, loopMin, top)
			}
			probed = max(probed, s.limit)
		}
	}
	if settled < 0 || trace[settled].at > window {
		t.Fatalf("the limit did not fall into [%d, %d] within %v of the step", loopMin, top, window)
	}
	if probed < knee {
		t.Errorf("the settled limit never probed back up to the knee %d (highest %d)", knee, probed)
	}

	// While shed pressure rises, from the step's start until the hint first
	// reaches its cap, the hint never falls; at the cap, a healthy interval
	// can take off one hintDecay before the next shed doubles it back.
	capped := false
	for i, s := range trace[1:] {
		if s.at >= stepEnd {
			break
		}
		if !capped && s.hint < trace[i].hint {
			t.Fatalf("at %v the hint fell from %v to %v as sheds rose to %d", s.at, trace[i].hint, s.hint, s.sheds)
		}
		capped = capped || s.hint == maxRetryAfter
		if capped && s.hint < maxRetryAfter-hintDecay {
			t.Fatalf("at %v, under sustained sheds, the hint fell to %v", s.at, s.hint)
		}
	}
	if !capped {
		t.Error("the hint never reached its cap under a 20× step")
	}

	// After the step the limit is back at MaxInFlight within one window
	// (for the breaching samples to age out) plus one adjustWait per step
	// from the floor, and stays there.
	recovered := stepEnd + window + (loopMax-loopMin)*adjustWait
	for _, s := range trace {
		if s.at >= recovered && s.limit != loopMax {
			t.Fatalf("at %v, %v after the step, the limit is %d, want %d", s.at, s.at-stepEnd, s.limit, loopMax)
		}
	}
}
