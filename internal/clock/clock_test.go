package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosneg/internal/sim"
)

func TestSimReadsEngineTime(t *testing.T) {
	eng := sim.NewEngine()
	c := Sim(eng)
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now at virtual zero = %v, want %v", got, Epoch)
	}
	var firedAt time.Time
	c.AfterFunc(3*time.Second, func() { firedAt = c.Now() })
	stopped := c.AfterFunc(2*time.Second, func() { t.Error("stopped timer fired") })
	if !stopped.Stop() {
		t.Error("Stop on a pending timer reported it already done")
	}
	eng.Run(5 * time.Second)
	if want := Epoch.Add(3 * time.Second); !firedAt.Equal(want) {
		t.Errorf("timer fired at %v, want %v", firedAt, want)
	}
	if got := c.Now().Sub(Epoch); got != 5*time.Second {
		t.Errorf("Now after Run(5s) = Epoch+%v", got)
	}
	if stopped.Stop() {
		t.Error("second Stop reported a pending timer")
	}
	fired := c.AfterFunc(-time.Second, func() {})
	eng.Run(eng.Now())
	if fired.Stop() {
		t.Error("Stop after the timer fired reported it pending")
	}
}

// TestSimConcurrentArming runs the engine on one goroutine while others arm
// and stop timers, as a wire test does while server handlers arm choice
// timers. Run holds no lock while an event runs, so events arm timers too.
func TestSimConcurrentArming(t *testing.T) {
	eng := sim.NewEngine()
	c := Sim(eng)
	var fired, late atomic.Int64
	count := func() { fired.Add(1) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for eng.Now() < time.Second {
			eng.Run(eng.Now() + time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				c.AfterFunc(time.Millisecond, func() { c.AfterFunc(0, count) })
				if !c.AfterFunc(time.Millisecond, count).Stop() {
					late.Add(1) // the runner fired it first
				}
			}
		}()
	}
	wg.Wait()
	<-done
	eng.RunAll()
	if want := 400 + late.Load(); fired.Load() != want {
		t.Errorf("fired = %d, want %d", fired.Load(), want)
	}
}

func TestWallTimerIsTimeTimer(t *testing.T) {
	done := make(chan struct{})
	tm := Wall{}.AfterFunc(time.Millisecond, func() { close(done) })
	if _, ok := tm.(*time.Timer); !ok {
		t.Fatalf("Wall timer is %T, want *time.Timer", tm)
	}
	<-done
	if tm.Stop() {
		t.Error("Stop after the timer fired reported it pending")
	}
	if d := time.Since(Wall{}.Now()); d < 0 || d > time.Minute {
		t.Errorf("Wall.Now is %v away from time.Now", d)
	}
}
