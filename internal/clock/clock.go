// Package clock is the one way time enters the QoS manager, the admission
// controller, the playout driver and the protocol server: a reading of now
// and a one-shot timer. Wall is real time; Sim reads and schedules on a
// discrete-event engine, so tests and experiments run the same code in
// virtual time.
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

// Epoch is what a Sim clock reads at virtual time zero.
var Epoch = time.Unix(0, 0).UTC()

// Sim adapts a simulation engine: it reads Epoch plus the engine's virtual
// time, and its timers are engine events, fired as the engine runs. A
// negative delay fires at the current virtual time, as a wall timer would.
func Sim(eng *sim.Engine) Clock { return simClock{eng} }

type simClock struct{ eng *sim.Engine }

func (c simClock) Now() time.Time { return Epoch.Add(c.eng.Now()) }

func (c simClock) AfterFunc(d time.Duration, f func()) Timer {
	return c.eng.MustSchedule(max(d, 0), f)
}
