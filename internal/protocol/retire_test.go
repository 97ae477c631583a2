package protocol

import (
	"errors"
	"strings"
	"testing"
	"time"

	"qosneg/internal/core"
)

// churn ends n sessions on the harness's manager in-process, pushing older
// retired sessions out of its tombstone ring.
func (h *harness) churn(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		res, err := h.bed.Manager.NegotiateContext(bg, h.bed.Client(1), "news-1", tvProfile(0))
		if err != nil || res.Session == nil {
			t.Fatalf("churn negotiation %d: %v (%v)", i, err, res.Status)
		}
		if err := h.bed.Manager.Reject(res.Session.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetiredSessionOverWire is the wire half of the retirement semantics:
// every session-addressed RPC against a live session, a retired one still in
// the manager's tombstone ring and one the ring has overwritten. The last
// keeps its identity across the wire as core.ErrUnknownSession.
func TestRetiredSessionOverWire(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	negotiate := func() core.SessionID {
		t.Helper()
		res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(0))
		if err != nil || !res.Status.Reserved() {
			t.Fatalf("negotiate: %v (%v)", err, res.Status)
		}
		return res.Session
	}
	evicted := negotiate()
	if err := c.Reject(bg, evicted); err != nil {
		t.Fatal(err)
	}
	h.churn(t, core.TombstoneRing)
	rejected, expired := negotiate(), negotiate()
	if err := c.Reject(bg, rejected); err != nil {
		t.Fatal(err)
	}
	if err := h.bed.Manager.Expire(expired); err != nil {
		t.Fatal(err)
	}

	calls := []struct {
		name string
		call func(core.SessionID) error
	}{
		{"Session", func(id core.SessionID) error { _, err := c.Session(bg, id); return err }},
		{"Confirm", func(id core.SessionID) error { return c.Confirm(bg, id) }},
		{"Reject", func(id core.SessionID) error { return c.Reject(bg, id) }},
		{"Renegotiate", func(id core.SessionID) error { _, err := c.Renegotiate(bg, id, tvProfile(0)); return err }},
		{"Invoice", func(id core.SessionID) error { _, err := c.Invoice(bg, id); return err }},
		{"Watch", func(id core.SessionID) error { return c.Watch(bg, id, time.Millisecond, func(SessionInfo) {}) }},
	}
	for _, tc := range calls {
		if tc.name != "Watch" { // a watch on a live session runs until it ends; see the eviction test
			id := negotiate()
			if err := tc.call(id); err != nil {
				t.Errorf("%s on a live session: %v", tc.name, err)
			}
			h.bed.Manager.Abort(id)
		}
		for how, id := range map[string]core.SessionID{"rejected": rejected, "expired": expired} {
			err := tc.call(id)
			want := core.ErrBadState.Error()
			switch {
			case tc.name == "Session" || tc.name == "Watch":
				want = ""
			case how == "expired" && tc.name != "Invoice":
				want = core.ErrChoicePeriodExpired.Error()
			}
			if (want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), want)) {
				t.Errorf("%s on a %s session in the ring: %v, want %q", tc.name, how, err, want)
			}
		}
		if err := tc.call(evicted); !errors.Is(err, core.ErrUnknownSession) {
			t.Errorf("%s on a session evicted from the ring: %v, want %v", tc.name, err, core.ErrUnknownSession)
		}
	}
	info, err := c.Session(bg, rejected)
	if err != nil || info.State != "aborted" || info.Cost == 0 {
		t.Errorf("rejected session reads back as %+v, %v", info, err)
	}
}

// TestWatchSurvivesEviction: a watch holds its session while the manager
// retires it and then forgets it; the stream must still end with the final
// update rather than hang on an id the manager no longer knows.
func TestWatchSurvivesEviction(t *testing.T) {
	for _, codec := range []string{CodecBinary, CodecJSON} {
		codec := codec
		t.Run(codec, func(t *testing.T) {
			h := newHarness(t)
			c, err := Dial(h.addr, WithWire(WireOptions{Codecs: []string{codec}}))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(0))
			if err != nil || !res.Status.Reserved() {
				t.Fatalf("negotiate: %v (%v)", err, res.Status)
			}
			first := make(chan struct{})
			var last SessionInfo
			done := make(chan error, 1)
			go func() {
				updates := 0
				done <- c.Watch(bg, res.Session, time.Millisecond, func(i SessionInfo) {
					last = i
					if updates++; updates == 1 {
						close(first)
					}
				})
			}()
			<-first
			// Evict the watched session between two samples of the watch.
			if err := h.bed.Manager.Reject(res.Session); err != nil {
				t.Fatal(err)
			}
			h.churn(t, core.TombstoneRing)
			if _, err := h.bed.Manager.Session(res.Session); !errors.Is(err, core.ErrUnknownSession) {
				t.Fatalf("watched session still known after the churn: %v", err)
			}
			select {
			case err := <-done:
				if err != nil || last.State != "aborted" {
					t.Errorf("watch ended with %v, last update %+v", err, last)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("watch on an evicted session hangs")
			}
		})
	}
}
