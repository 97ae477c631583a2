// Package clock is the one way time enters the QoS manager, the admission
// controller, the playout driver, the protocol server, the fault injector
// and the arrival driver: a reading of now, a one-shot timer and a sleep.
// Wall is real time; Sim reads, schedules and sleeps on a discrete-event
// engine, so tests and experiments run the same code in virtual time.
package clock

import (
	"time"

	"qosneg/internal/sim"
)

// Clock is a time source with one-shot timers.
type Clock interface {
	Now() time.Time
	// AfterFunc runs f once, d from now, on a goroutine of the clock's
	// choosing; Stop on the returned timer cancels it.
	AfterFunc(d time.Duration, f func()) Timer
	// Sleep blocks the caller for d. On a Sim clock the caller must be an
	// engine process (sim.Engine.Go).
	Sleep(d time.Duration)
}

// Timer is a pending AfterFunc. Stop reports whether it prevented the call.
type Timer interface {
	Stop() bool
}

// Wall is real time. Its timers are *time.Timer values.
type Wall struct{}

// Now returns time.Now().
func (Wall) Now() time.Time { return time.Now() }

// AfterFunc is time.AfterFunc.
func (Wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Sleep is time.Sleep.
func (Wall) Sleep(d time.Duration) { time.Sleep(d) }

// Epoch is what a Sim clock reads at virtual time zero.
var Epoch = time.Unix(0, 0).UTC()

// Sim adapts a simulation engine: it reads Epoch plus the engine's virtual
// time, and its timers are engine events, fired as the engine runs. A
// negative delay fires at the current virtual time, as a wall timer would;
// Sleep suspends the calling engine process, and a negative d resumes it
// after the events due now.
func Sim(eng *sim.Engine) Clock { return simClock{eng} }

type simClock struct{ eng *sim.Engine }

func (c simClock) Now() time.Time { return Epoch.Add(c.eng.Now()) }

func (c simClock) AfterFunc(d time.Duration, f func()) Timer {
	return c.eng.MustSchedule(max(d, 0), f)
}

func (c simClock) Sleep(d time.Duration) { c.eng.Sleep(max(d, 0)) }
