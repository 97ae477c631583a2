package experiments

// This file implements negotiation with future reservations, the
// extension the authors develop in [Haf 96] ("Quality of Service
// Negotiation with Future Reservations") and cite from Section 5 of the
// HPDC paper: instead of reserving resources for immediate playout, the
// user books a document for a future interval and the system guarantees
// capacity for that interval at negotiation time.
//
// The core abstraction is the Calendar: a capacity ledger over virtual
// time. A booking occupies an amount of capacity over [start, end); the
// calendar admits it iff the peak committed amount over the interval,
// including the candidate, never exceeds the capacity. A Planner books a
// multi-resource demand set atomically across several calendars — the
// future-reservation analogue of the QoS manager's commitment step.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrOverbooked is returned when an interval has insufficient capacity.
var ErrOverbooked = errors.New("booking: insufficient capacity in interval")

// ErrUnknownBooking is returned when cancelling a booking the calendar does
// not hold.
var ErrUnknownBooking = errors.New("booking: unknown booking")

// ID names one booking within a calendar.
type ID uint64

// Calendar is a capacity ledger over virtual time. It is safe for
// concurrent use.
type Calendar struct {
	capacity int64

	mu       sync.Mutex
	next     ID
	bookings map[ID]span
}

type span struct {
	start, end time.Duration
	amount     int64
}

// NewCalendar returns a calendar with the given total capacity (in
// arbitrary units; the callers here use bits per second).
func NewCalendar(capacity int64) (*Calendar, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("booking: non-positive capacity %d", capacity)
	}
	return &Calendar{capacity: capacity, bookings: make(map[ID]span)}, nil
}

// MustCalendar is NewCalendar that panics on error.
func MustCalendar(capacity int64) *Calendar {
	c, err := NewCalendar(capacity)
	if err != nil {
		panic(err)
	}
	return c
}

// Capacity returns the calendar's total capacity.
func (c *Calendar) Capacity() int64 { return c.capacity }

// peakLocked computes the maximum committed amount over [start, end),
// optionally including a candidate amount across the whole interval.
func (c *Calendar) peakLocked(start, end time.Duration, extra int64) int64 {
	type event struct {
		at    time.Duration
		delta int64
	}
	var events []event
	for _, b := range c.bookings {
		if b.end <= start || b.start >= end {
			continue
		}
		s := b.start
		if s < start {
			s = start
		}
		e := b.end
		if e > end {
			e = end
		}
		events = append(events, event{s, b.amount}, event{e, -b.amount})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].delta < events[j].delta // releases before acquisitions at a boundary
	})
	cur, peak := extra, extra
	for _, ev := range events {
		cur += ev.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// Peak returns the maximum committed amount over [start, end).
func (c *Calendar) Peak(start, end time.Duration) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peakLocked(start, end, 0)
}

// Available returns the guaranteed spare capacity over [start, end): the
// capacity minus the interval's peak commitment.
func (c *Calendar) Available(start, end time.Duration) int64 {
	return c.capacity - c.Peak(start, end)
}

// Book reserves amount units over [start, end). It fails with ErrOverbooked
// when the interval's peak including the candidate would exceed capacity.
func (c *Calendar) Book(start, end time.Duration, amount int64) (ID, error) {
	if amount < 0 {
		return 0, fmt.Errorf("booking: negative amount %d", amount)
	}
	if end <= start {
		return 0, fmt.Errorf("booking: empty interval [%v, %v)", start, end)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if peak := c.peakLocked(start, end, amount); peak > c.capacity {
		return 0, fmt.Errorf("%w: peak %d exceeds capacity %d", ErrOverbooked, peak, c.capacity)
	}
	c.next++
	c.bookings[c.next] = span{start: start, end: end, amount: amount}
	return c.next, nil
}

// Cancel releases a booking.
func (c *Calendar) Cancel(id ID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.bookings[id]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownBooking, id)
	}
	delete(c.bookings, id)
	return nil
}

// Count returns the number of live bookings.
func (c *Calendar) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bookings)
}

// Expire releases every booking that ends at or before now; housekeeping
// for long-running systems. It returns the number released.
func (c *Calendar) Expire(now time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for id, b := range c.bookings {
		if b.end <= now {
			delete(c.bookings, id)
			n++
		}
	}
	return n
}

// Demand is one resource requirement of a future reservation.
type Demand struct {
	// Resource names the calendar the demand draws from.
	Resource string
	// Amount is the capacity needed over the playout interval.
	Amount int64
}

// Plan is an atomically booked demand set; Cancel releases everything.
type Plan struct {
	planner  *Planner
	bookings []planBooking
	// Start and End delimit the booked interval.
	Start, End time.Duration
}

type planBooking struct {
	resource string
	id       ID
}

// Planner books demand sets across named calendars.
type Planner struct {
	mu        sync.Mutex
	calendars map[string]*Calendar
}

// NewPlanner returns an empty planner.
func NewPlanner() *Planner {
	return &Planner{calendars: make(map[string]*Calendar)}
}

// AddResource registers a calendar under a name.
func (p *Planner) AddResource(name string, c *Calendar) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.calendars[name]; ok {
		return fmt.Errorf("booking: duplicate resource %q", name)
	}
	p.calendars[name] = c
	return nil
}

// Resource returns the named calendar.
func (p *Planner) Resource(name string) (*Calendar, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.calendars[name]
	return c, ok
}

// Reserve books every demand over [start, end) atomically: on any failure
// the partial bookings are cancelled and the error returned. Demands on the
// same resource accumulate.
func (p *Planner) Reserve(start, end time.Duration, demands []Demand) (*Plan, error) {
	plan := &Plan{planner: p, Start: start, End: end}
	for _, d := range demands {
		cal, ok := p.Resource(d.Resource)
		if !ok {
			plan.Cancel()
			return nil, fmt.Errorf("booking: unknown resource %q", d.Resource)
		}
		id, err := cal.Book(start, end, d.Amount)
		if err != nil {
			plan.Cancel()
			return nil, fmt.Errorf("booking %q: %w", d.Resource, err)
		}
		plan.bookings = append(plan.bookings, planBooking{resource: d.Resource, id: id})
	}
	return plan, nil
}

// Cancel releases the plan's bookings; it is idempotent.
func (p *Plan) Cancel() {
	for _, b := range p.bookings {
		if cal, ok := p.planner.Resource(b.resource); ok {
			cal.Cancel(b.id)
		}
	}
	p.bookings = nil
}

// Booked reports whether the plan still holds bookings.
func (p *Plan) Booked() bool { return len(p.bookings) > 0 }
