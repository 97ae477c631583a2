package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/media"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// tracedBed builds the standard bed with a ring recording the manager's span
// events.
func tracedBed(t *testing.T) (*bed, *telemetry.Ring) {
	t.Helper()
	ring := telemetry.NewRing(256)
	opts := DefaultOptions()
	opts.Tracer = ring
	return newBedOpts(t, cmfs.DefaultConfig(), 0, opts), ring
}

// decisions filters a ring down to the events that say what the procedure
// decided — each carries an outcome word, or is a skip — dropping the timed
// step laps around them.
func decisions(r *telemetry.Ring) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range r.Events() {
		if e.Status != "" || e.Step == telemetry.StepSkipDead {
			out = append(out, e)
		}
	}
	return out
}

// countDecisions counts the decision events of one step and outcome word.
func countDecisions(r *telemetry.Ring, step telemetry.Step, status string) int {
	n := 0
	for _, e := range decisions(r) {
		if e.Step == step && e.Status == status {
			n++
		}
	}
	return n
}

func TestTraceSuccessfulNegotiation(t *testing.T) {
	b, ring := tracedBed(t)
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	// The first offer committed: one decision, the commitment itself.
	events := decisions(ring)
	if len(events) != 1 {
		t.Fatalf("decisions = %+v", events)
	}
	last := events[0]
	if last.Step != telemetry.StepCommitment || last.Status != "SUCCEEDED" {
		t.Errorf("last event = %+v", last)
	}
	if last.Offer != res.Session.Current.Key() {
		t.Errorf("committed offer %q vs session %q", last.Offer, res.Session.Current.Key())
	}
}

func TestTraceExhaustion(t *testing.T) {
	b, ring := tracedBed(t)
	for _, srv := range b.servers {
		srv.SetDegradation(0.999)
	}
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != FailedTryLater {
		t.Fatalf("status = %v", res.Status)
	}
	// Every attempt ends in one commit-failed event naming its offer and
	// cause, and the pass closes with one exhausted event whose tally agrees.
	failures, exhausted := 0, 0
	var feasible, downs, capacities int
	for _, e := range decisions(ring) {
		switch {
		case e.Step == telemetry.StepCommitment && e.Status == "exhausted":
			exhausted++
			if _, err := fmt.Sscanf(e.Detail, "%d feasible offers (%d server-down, %d capacity", &feasible, &downs, &capacities); err != nil {
				t.Errorf("exhausted detail %q: %v", e.Detail, err)
			}
		case e.Step == telemetry.StepCommitment:
			failures++
			if e.Status != CauseCapacity.String() || e.Offer == "" || e.Server == "" || !strings.Contains(e.Detail, "reserve") {
				t.Errorf("commit-failed event = %+v, want a capacity failure naming offer, server and operation", e)
			}
		default:
			t.Errorf("unexpected decision %+v", e)
		}
	}
	if failures == 0 || failures != feasible || failures != capacities || exhausted != 1 {
		t.Errorf("failures=%d exhausted=%d, tally: %d feasible, %d capacity", failures, exhausted, feasible, capacities)
	}
}

func TestTraceLocalFailure(t *testing.T) {
	b, ring := tracedBed(t)
	mach := b.mach
	mach.Display.Color = qos.BlackWhite
	if _, err := b.man.NegotiateContext(context.Background(), mach, "news-1", tvProfile()); err != nil {
		t.Fatal(err)
	}
	events := decisions(ring)
	if len(events) != 1 || events[0].Step != telemetry.StepLocalNegotiation || events[0].Status != "failed" {
		t.Fatalf("decisions = %+v", events)
	}
	if !strings.Contains(events[0].Detail, "color") {
		t.Errorf("detail = %q", events[0].Detail)
	}
}

// TestTraceNoVariant checks step 2's refusal names the monomedia no variant
// of which the machine can decode.
func TestTraceNoVariant(t *testing.T) {
	b, ring := tracedBed(t)
	mach := b.mach
	mach.Decoders = []media.Format{media.MPEG1, media.GIF, media.PlainText} // no audio decoder
	res, err := b.man.NegotiateContext(context.Background(), mach, "news-1", tvProfile())
	if err != nil || res.Status != FailedWithoutOffer {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	events := decisions(ring)
	if len(events) != 1 || events[0].Step != telemetry.StepClassification || events[0].Status != "no-variant" || events[0].Detail != "audio" {
		t.Fatalf("decisions = %+v", events)
	}
}

func TestRevenueAccumulatesOnCompletion(t *testing.T) {
	b := defaultBed(t)
	res, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	price := res.Session.Cost()
	b.man.Confirm(res.Session.ID)
	b.man.Complete(res.Session.ID)
	if got := b.man.Stats().Revenue; got != price {
		t.Errorf("revenue = %v, want %v", got, price)
	}
	// Rejected sessions earn nothing.
	res2, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	b.man.Reject(res2.Session.ID)
	if got := b.man.Stats().Revenue; got != price {
		t.Errorf("revenue after reject = %v", got)
	}
	// Aborted sessions earn nothing either.
	res3, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	b.man.Confirm(res3.Session.ID)
	b.man.Abort(res3.Session.ID)
	if got := b.man.Stats().Revenue; got != price {
		t.Errorf("revenue after abort = %v", got)
	}
}

func TestManagerInvoice(t *testing.T) {
	b := defaultBed(t)
	res, _ := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	inv, err := b.man.Invoice(res.Session.ID)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Total != res.Session.Cost() {
		t.Errorf("invoice total %v vs session cost %v", inv.Total, res.Session.Cost())
	}
	if len(inv.Lines) != 2 {
		t.Fatalf("lines = %+v", inv.Lines)
	}
	if inv.Lines[0].Label != "video" || inv.Lines[1].Label != "audio" {
		t.Errorf("labels = %q, %q", inv.Lines[0].Label, inv.Lines[1].Label)
	}
	if !strings.Contains(inv.String(), "news-1") {
		t.Error("document missing from rendering")
	}
	if _, err := b.man.Invoice(999); err == nil {
		t.Error("unknown session invoiced")
	}
}

func TestConcurrentManagerStress(t *testing.T) {
	b := defaultBed(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
				if err != nil {
					t.Error(err)
					return
				}
				if res.Session == nil {
					continue
				}
				id := res.Session.ID
				switch (g + i) % 4 {
				case 0:
					b.man.Reject(id)
				case 1:
					b.man.Confirm(id)
					b.man.Advance(id, time.Second)
					b.man.Complete(id)
				case 2:
					b.man.RenegotiateContext(context.Background(), id, tvProfile())
					b.man.Abort(id)
				default:
					b.man.Confirm(id)
					b.man.Adapt(id) // healthy system: usually succeeds or errs cleanly
					b.man.Abort(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := b.net.ActiveReservations(); got != 0 {
		t.Errorf("leaked %d network reservations", got)
	}
	for id, srv := range b.servers {
		if srv.ActiveStreams() != 0 {
			t.Errorf("server %s leaked %d streams", id, srv.ActiveStreams())
		}
	}
}
