package protocol

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/testbed"
)

func TestWatchStreamsToCompletion(t *testing.T) {
	bed := testbed.MustNew(testbed.Spec{})
	if _, err := bed.AddNewsArticle("news-1", "Clip", 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	h, eng := simHarness(t, bed)
	p := AttachPlayout(h.server, bed.Manager)
	t.Cleanup(p.Stop)

	ctl := h.dial(t)
	res, err := ctl.Negotiate(bg, bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}

	// Watch on a dedicated connection, then confirm from the control one.
	watcher := h.dial(t)
	done := make(chan []SessionInfo, 1)
	states := make(chan string, 16) // more than the watch sends: its callback never blocks
	go func() {
		var updates []SessionInfo
		err := watcher.Watch(bg, res.Session, 20*time.Millisecond, func(i SessionInfo) {
			updates = append(updates, i)
			states <- i.State
		})
		if err != nil {
			t.Error(err)
		}
		done <- updates
	}()
	// The choice timer and the watch's first poll are armed.
	waitPending(t, eng, 2)
	if err := ctl.Confirm(bg, res.Session); err != nil {
		t.Fatal(err)
	}
	// One step fires the poll; the watch reports the session playing before
	// the engine runs on to its end.
	eng.Run(eng.Now() + 20*time.Millisecond)
	for state := ""; state != "playing"; {
		select {
		case state = <-states:
		case <-time.After(5 * time.Second):
			t.Fatal("playing never reported")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(done) == 0 && time.Now().Before(deadline) {
		eng.Run(eng.Now() + 20*time.Millisecond)
		runtime.Gosched()
	}

	select {
	case updates := <-done:
		if len(updates) < 2 {
			t.Fatalf("updates = %+v", updates)
		}
		first, last := updates[0], updates[len(updates)-1]
		if first.State != "reserved" && first.State != "playing" {
			t.Errorf("first update state = %s", first.State)
		}
		if last.State != core.Completed.String() {
			t.Errorf("final state = %s", last.State)
		}
		// State changes arrived in order.
		sawPlaying := false
		for _, u := range updates {
			if u.State == "playing" {
				sawPlaying = true
			}
		}
		if !sawPlaying {
			t.Errorf("playing never observed: %+v", updates)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never finished")
	}
}

func TestWatchUnknownSession(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	err := c.Watch(bg, 999, 10*time.Millisecond, func(SessionInfo) {})
	if err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Errorf("watch unknown: %v", err)
	}
	// The connection survives for further requests.
	if _, err := c.ListDocuments(bg, ""); err != nil {
		t.Errorf("connection broken: %v", err)
	}
}

func TestWatchReportsAbort(t *testing.T) {
	h, eng := simHarness(t, newsBed(t))
	ctl := h.dial(t)
	res, err := ctl.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	watcher := h.dial(t)
	done := make(chan string, 1)
	go func() {
		last := ""
		watcher.Watch(bg, res.Session, 10*time.Millisecond, func(i SessionInfo) { last = i.State })
		done <- last
	}()
	// The choice timer and the watch's first poll are armed.
	waitPending(t, eng, 2)
	if err := ctl.Reject(bg, res.Session); err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + 10*time.Millisecond)
	select {
	case last := <-done:
		if last != "aborted" {
			t.Errorf("final state = %s", last)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never finished")
	}
}
