package experiments

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCalendarBasics(t *testing.T) {
	if _, err := NewCalendar(0); err == nil {
		t.Error("zero capacity accepted")
	}
	c := MustCalendar(100)
	if c.Capacity() != 100 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
	id, err := c.Book(0, 10*time.Second, 60)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != 1 {
		t.Errorf("Count = %d", c.Count())
	}
	if got := c.Peak(0, 10*time.Second); got != 60 {
		t.Errorf("Peak = %d", got)
	}
	if got := c.Available(0, 10*time.Second); got != 40 {
		t.Errorf("Available = %d", got)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); !errors.Is(err, ErrUnknownBooking) {
		t.Errorf("double cancel: %v", err)
	}
}

func TestBookValidation(t *testing.T) {
	c := MustCalendar(100)
	if _, err := c.Book(10*time.Second, 10*time.Second, 1); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := c.Book(10*time.Second, 5*time.Second, 1); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, err := c.Book(0, time.Second, -1); err == nil {
		t.Error("negative amount accepted")
	}
	if _, err := c.Book(0, time.Second, 0); err != nil {
		t.Errorf("zero amount rejected: %v", err)
	}
}

func TestOverbookingRejected(t *testing.T) {
	c := MustCalendar(100)
	if _, err := c.Book(0, 10*time.Second, 70); err != nil {
		t.Fatal(err)
	}
	// Overlapping interval with insufficient spare.
	if _, err := c.Book(5*time.Second, 15*time.Second, 40); !errors.Is(err, ErrOverbooked) {
		t.Errorf("overbooking accepted: %v", err)
	}
	// Disjoint interval is fine.
	if _, err := c.Book(10*time.Second, 20*time.Second, 100); err != nil {
		t.Errorf("disjoint booking rejected: %v", err)
	}
	// Back-to-back boundaries do not overlap ([0,10) then [10,20)).
	if got := c.Peak(0, 20*time.Second); got != 100 {
		t.Errorf("peak = %d", got)
	}
}

func TestPeakWithStaggeredBookings(t *testing.T) {
	c := MustCalendar(100)
	// Three 40-unit bookings staggered so at most two overlap anywhere.
	mustBook(t, c, 0, 10, 40)
	mustBook(t, c, 5, 15, 40)
	mustBook(t, c, 10, 20, 40)
	if got := c.Peak(0, 20*time.Second); got != 80 {
		t.Errorf("peak = %d, want 80", got)
	}
	// A fourth overlapping all three of them must fail if it pushes any
	// instant over 100.
	if _, err := c.Book(0, 20*time.Second, 30); !errors.Is(err, ErrOverbooked) {
		t.Errorf("peak accounting wrong: %v", err)
	}
	// 20 units fit (peak becomes exactly 100).
	if _, err := c.Book(0, 20*time.Second, 20); err != nil {
		t.Errorf("exact fit rejected: %v", err)
	}
}

func mustBook(t *testing.T, c *Calendar, startSec, endSec int, amount int64) ID {
	t.Helper()
	id, err := c.Book(time.Duration(startSec)*time.Second, time.Duration(endSec)*time.Second, amount)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestExpire(t *testing.T) {
	c := MustCalendar(100)
	mustBook(t, c, 0, 10, 50)
	mustBook(t, c, 5, 20, 50)
	if n := c.Expire(10 * time.Second); n != 1 {
		t.Errorf("expired %d bookings", n)
	}
	if c.Count() != 1 {
		t.Errorf("Count = %d", c.Count())
	}
}

func TestPlannerAtomicity(t *testing.T) {
	p := NewPlanner()
	if err := p.AddResource("a", MustCalendar(100)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddResource("b", MustCalendar(50)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddResource("a", MustCalendar(1)); err == nil {
		t.Error("duplicate resource accepted")
	}

	// A demand set that fits.
	plan, err := p.Reserve(0, 10*time.Second, []Demand{
		{Resource: "a", Amount: 80},
		{Resource: "b", Amount: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Booked() {
		t.Error("plan not booked")
	}

	// A second set that fails on b must leave a untouched.
	_, err = p.Reserve(0, 10*time.Second, []Demand{
		{Resource: "a", Amount: 20},
		{Resource: "b", Amount: 20},
	})
	if !errors.Is(err, ErrOverbooked) {
		t.Fatalf("want ErrOverbooked, got %v", err)
	}
	calA, _ := p.Resource("a")
	if calA.Peak(0, 10*time.Second) != 80 {
		t.Errorf("partial booking leaked on a: peak %d", calA.Peak(0, 10*time.Second))
	}

	// Unknown resource rolls back too.
	if _, err := p.Reserve(0, time.Second, []Demand{{Resource: "ghost", Amount: 1}}); err == nil {
		t.Error("unknown resource accepted")
	}

	// Cancelling restores everything; idempotent.
	plan.Cancel()
	plan.Cancel()
	if calA.Count() != 0 {
		t.Errorf("bookings leaked: %d", calA.Count())
	}
}

func TestCalendarConcurrency(t *testing.T) {
	c := MustCalendar(1000)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				id, err := c.Book(0, time.Second, 100)
				if err != nil {
					continue
				}
				c.Peak(0, time.Second)
				c.Cancel(id)
			}
		}()
	}
	wg.Wait()
	if c.Count() != 0 {
		t.Errorf("leaked %d bookings", c.Count())
	}
}

// Property: the calendar never admits a set of bookings whose peak exceeds
// capacity, for any random booking sequence.
func TestNoOverbookingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		c := MustCalendar(1000)
		for i := 0; i+2 < len(raw); i += 3 {
			start := time.Duration(raw[i]%100) * time.Second
			length := time.Duration(raw[i+1]%50+1) * time.Second
			amount := int64(raw[i+2] % 600)
			c.Book(start, start+length, amount)
		}
		// Sweep minute-by-minute: peak must never exceed capacity.
		for s := time.Duration(0); s < 150*time.Second; s += time.Second {
			if c.Peak(s, s+time.Second) > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: booking then cancelling restores the exact prior availability
// on every probed interval.
func TestBookCancelInverseProperty(t *testing.T) {
	f := func(s1, l1, a1, s2, l2 uint8) bool {
		c := MustCalendar(500)
		c.Book(time.Duration(s1)*time.Second, time.Duration(s1)*time.Second+time.Duration(l1%20+1)*time.Second, int64(a1))
		probeStart := time.Duration(s2) * time.Second
		probeEnd := probeStart + time.Duration(l2%20+1)*time.Second
		before := c.Available(probeStart, probeEnd)
		id, err := c.Book(0, 100*time.Second, 50)
		if err != nil {
			return true
		}
		c.Cancel(id)
		return c.Available(probeStart, probeEnd) == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
