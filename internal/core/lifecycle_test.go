package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"qosneg/internal/cmfs"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
)

// The tests in this file pin the epoch-guarded session lifecycle: the
// adaptation and renegotiation procedures drop the session lock while they
// commit replacement resources, and a concurrent terminal transition
// (Abort, Expire, Complete, Reject) must win that race without leaking the
// freshly committed resources. Each test drives the interleaving
// deterministically through the manager's testHookUnlocked, which fires at
// the start of the unlock window — exactly where the pre-fix code lost the
// race — and then proves quiescence with the bed's resource ledger.

func checkLedgerEmpty(t *testing.T, b *bed) {
	t.Helper()
	if err := b.led.CheckEmpty(); err != nil {
		t.Error(err)
	}
}

func reservedSession(t *testing.T, b *bed) *Session {
	t.Helper()
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.Reserved() {
		t.Fatalf("negotiation failed: %v (%s)", res.Status, res.Reason)
	}
	return res.Session
}

func TestEpochAdvancesOnEveryTransition(t *testing.T) {
	b := defaultBed(t)
	s := reservedSession(t, b)
	e0 := s.Epoch()
	if err := b.man.Confirm(s.ID); err != nil {
		t.Fatal(err)
	}
	e1 := s.Epoch()
	if e1 <= e0 {
		t.Errorf("epoch after Confirm = %d, want > %d", e1, e0)
	}
	if err := b.man.Complete(s.ID); err != nil {
		t.Fatal(err)
	}
	if e2 := s.Epoch(); e2 <= e1 {
		t.Errorf("epoch after Complete = %d, want > %d", e2, e1)
	}
	checkLedgerEmpty(t, b)
}

// TestAdaptReleasesStaleInstallOnConcurrentAbort is the regression test for
// the Adapt commitment leak: Abort lands inside adaptation's unlock window,
// after the old commitment is withdrawn but before the alternate is
// installed. Pre-fix, Adapt installed the alternate on the aborted session,
// stranding its CMFS and network reservations forever.
func TestAdaptReleasesStaleInstallOnConcurrentAbort(t *testing.T) {
	b := defaultBed(t)
	ring := telemetry.NewRing(64)
	b.man.opts.Tracer = ring
	s := playingSession(t, b)
	fired := false
	b.man.testHookUnlocked = func(op string, id SessionID) {
		if op != "adapt" || fired {
			return
		}
		fired = true
		if err := b.man.Abort(id); err != nil {
			t.Errorf("Abort in window: %v", err)
		}
	}
	_, err := b.man.Adapt(s.ID)
	if !errors.Is(err, ErrBadState) {
		t.Fatalf("Adapt = %v, want ErrBadState", err)
	}
	if !fired {
		t.Fatal("unlock-window hook never fired")
	}
	if got := s.State(); got != Aborted {
		t.Errorf("state = %v, want aborted", got)
	}
	if got := b.man.Stats().StaleInstalls; got != 1 {
		t.Errorf("stale installs = %d, want 1", got)
	}
	if got := countDecisions(ring, telemetry.StepCommitment, "stale-install"); got != 1 {
		t.Errorf("%d stale-install events, want 1: %+v", got, decisions(ring))
	}
	if got := b.net.ActiveReservations(); got != 0 {
		t.Errorf("%d network reservations leaked past the abort", got)
	}
	checkLedgerEmpty(t, b)
}

// TestRenegotiateReleasesStaleInstallOnConcurrentExpire is the regression
// test for the renegotiation commitment leak: the choice-period time-out
// fires Expire inside renegotiation's unlock window. Pre-fix, the fresh
// offer's reservations were installed on the expired (aborted) session and
// never released.
func TestRenegotiateReleasesStaleInstallOnConcurrentExpire(t *testing.T) {
	b := defaultBed(t)
	ring := telemetry.NewRing(64)
	b.man.opts.Tracer = ring
	s := reservedSession(t, b)
	fired := false
	b.man.testHookUnlocked = func(op string, id SessionID) {
		if op != "renegotiate" || fired {
			return
		}
		fired = true
		if err := b.man.Expire(id); err != nil {
			t.Errorf("Expire in window: %v", err)
		}
	}
	_, err := b.man.RenegotiateContext(context.Background(), s.ID, tvProfile())
	if !errors.Is(err, ErrChoicePeriodExpired) {
		t.Fatalf("RenegotiateContext = %v, want ErrChoicePeriodExpired", err)
	}
	if !fired {
		t.Fatal("unlock-window hook never fired")
	}
	if got := s.State(); got != Aborted {
		t.Errorf("state = %v, want aborted", got)
	}
	if got := b.man.Stats().StaleInstalls; got != 1 {
		t.Errorf("stale installs = %d, want 1", got)
	}
	if got := countDecisions(ring, telemetry.StepCommitment, "stale-install"); got != 1 {
		t.Errorf("%d stale-install events, want 1: %+v", got, decisions(ring))
	}
	if got := b.net.ActiveReservations(); got != 0 {
		t.Errorf("%d network reservations leaked past the expiry", got)
	}
	checkLedgerEmpty(t, b)
}

// Confirm inside renegotiation's window must refuse: the session holds no
// resources to start the presentation on. The renegotiation then completes
// normally and the session is confirmable again.
func TestConfirmRefusedMidRenegotiation(t *testing.T) {
	b := defaultBed(t)
	s := reservedSession(t, b)
	var confirmErr error
	fired := false
	b.man.testHookUnlocked = func(op string, id SessionID) {
		if op != "renegotiate" || fired {
			return
		}
		fired = true
		confirmErr = b.man.Confirm(id)
	}
	res, err := b.man.RenegotiateContext(context.Background(), s.ID, tvProfile())
	if err != nil {
		t.Fatalf("RenegotiateContext: %v", err)
	}
	if !res.Status.Reserved() {
		t.Fatalf("renegotiation status = %v (%s)", res.Status, res.Reason)
	}
	if !errors.Is(confirmErr, ErrBadState) {
		t.Errorf("Confirm mid-renegotiation = %v, want ErrBadState", confirmErr)
	}
	if got := s.State(); got != Reserved {
		t.Fatalf("state after renegotiation = %v, want reserved", got)
	}
	if err := b.man.Confirm(s.ID); err != nil {
		t.Errorf("Confirm after renegotiation: %v", err)
	}
	if err := b.man.Complete(s.ID); err != nil {
		t.Errorf("Complete: %v", err)
	}
	checkLedgerEmpty(t, b)
}

// A second renegotiation entering another's unlock window must refuse: the
// window renegotiation and adaptation share admits one procedure at a time.
// The first renegotiation then completes normally.
func TestRenegotiateRefusedWhileRenegotiationInFlight(t *testing.T) {
	b := defaultBed(t)
	s := reservedSession(t, b)
	var nested error
	fired := false
	b.man.testHookUnlocked = func(op string, id SessionID) {
		if op != "renegotiate" || fired {
			return
		}
		fired = true
		_, nested = b.man.RenegotiateContext(context.Background(), id, tvProfile())
	}
	res, err := b.man.RenegotiateContext(context.Background(), s.ID, tvProfile())
	if err != nil {
		t.Fatalf("RenegotiateContext: %v", err)
	}
	if !res.Status.Reserved() {
		t.Fatalf("renegotiation status = %v (%s)", res.Status, res.Reason)
	}
	want := fmt.Sprintf("%v: renegotiation or adaptation already in flight on session %d", ErrBadState, s.ID)
	if !errors.Is(nested, ErrBadState) || nested.Error() != want {
		t.Errorf("nested RenegotiateContext = %v, want %q", nested, want)
	}
	if got := s.State(); got != Reserved {
		t.Errorf("state = %v, want reserved", got)
	}
	if err := b.man.Reject(s.ID); err != nil {
		t.Fatal(err)
	}
	checkLedgerEmpty(t, b)
}

// A second adaptation entering while one is in flight must refuse rather
// than withdraw the (already empty) commitment a second time.
func TestAdaptRefusedWhileAdaptationInFlight(t *testing.T) {
	b := defaultBed(t)
	s := playingSession(t, b)
	var nested error
	fired := false
	b.man.testHookUnlocked = func(op string, id SessionID) {
		if op != "adapt" || fired {
			return
		}
		fired = true
		_, nested = b.man.Adapt(id)
	}
	if _, err := b.man.Adapt(s.ID); err != nil {
		t.Fatalf("Adapt: %v", err)
	}
	if !errors.Is(nested, ErrBadState) {
		t.Errorf("nested Adapt = %v, want ErrBadState", nested)
	}
	if got := s.State(); got != Playing {
		t.Errorf("state = %v, want playing", got)
	}
	if err := b.man.Abort(s.ID); err != nil {
		t.Fatal(err)
	}
	checkLedgerEmpty(t, b)
}

// AdaptContext with an expired context aborts the session cleanly: the
// troubled commitment is already withdrawn and released, so the only sound
// outcome is a leak-free abort reporting both the adaptation failure and
// the context error.
func TestAdaptContextCanceledAbortsCleanly(t *testing.T) {
	b := defaultBed(t)
	s := playingSession(t, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := b.man.AdaptContext(ctx, s.ID)
	if !errors.Is(err, ErrAdaptationFailed) {
		t.Fatalf("AdaptContext = %v, want ErrAdaptationFailed", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("AdaptContext = %v, want context.Canceled in chain", err)
	}
	if got := s.State(); got != Aborted {
		t.Errorf("state = %v, want aborted", got)
	}
	if got := b.net.ActiveReservations(); got != 0 {
		t.Errorf("%d network reservations leaked on canceled adaptation", got)
	}
	checkLedgerEmpty(t, b)
}

// Renegotiation whose document vanished from the registry must still
// release the withdrawn commitment (pre-fix it aborted the session after
// zeroing the commitment, leaking every reservation).
func TestRenegotiateDocumentLookupErrorReleasesResources(t *testing.T) {
	b := defaultBed(t)
	s := reservedSession(t, b)
	if err := b.reg.Remove("news-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.man.RenegotiateContext(context.Background(), s.ID, tvProfile()); err == nil {
		t.Fatal("RenegotiateContext succeeded without a document")
	}
	if got := s.State(); got != Aborted {
		t.Errorf("state = %v, want aborted", got)
	}
	if got := b.net.ActiveReservations(); got != 0 {
		t.Errorf("%d network reservations leaked on document-lookup failure", got)
	}
	checkLedgerEmpty(t, b)
}

// heldKey is one reservation a session yields through EachHold.
type heldKey struct {
	server media.ServerID
	res    cmfs.ReservationID
	conn   network.ReservationID
}

// TestHoldIndexInsideUnlockWindow pins what a session says it holds across
// an unlock window: before it, the session yields its commitment's
// reservations; inside it, where the commitment is withdrawn, nothing; after
// the install, exactly the replacement's; after a terminal transition,
// nothing.
func TestHoldIndexInsideUnlockWindow(t *testing.T) {
	for _, op := range []string{"adapt", "renegotiate"} {
		t.Run(op, func(t *testing.T) {
			b := defaultBed(t)
			s := reservedSession(t, b)
			if op == "adapt" {
				if err := b.man.Confirm(s.ID); err != nil {
					t.Fatal(err)
				}
			}
			committed := func() []heldKey {
				s.mu.Lock()
				defer s.mu.Unlock()
				var out []heldKey
				for _, h := range s.commit.choices {
					out = append(out, heldKey{h.server.ID(), h.res, h.conn})
				}
				return out
			}
			yields := func(when string, want []heldKey) {
				t.Helper()
				var got []heldKey
				s.EachHold(func(server media.ServerID, res cmfs.ReservationID, conn network.ReservationID) {
					got = append(got, heldKey{server, res, conn})
				})
				if !slices.Equal(got, want) {
					t.Errorf("%s: session yields %v, want %v", when, got, want)
				}
			}
			old := committed()
			if len(old) == 0 || !slices.ContainsFunc(old, func(k heldKey) bool { return k.conn != 0 }) {
				t.Fatalf("commitment %v: no choice with a connection to look for", old)
			}
			yields("before", old)
			windows := 0
			b.man.testHookUnlocked = func(string, SessionID) {
				windows++
				yields("inside the window", nil)
			}
			var err error
			if op == "adapt" {
				_, err = b.man.Adapt(s.ID)
			} else {
				var res Result
				res, err = b.man.RenegotiateContext(context.Background(), s.ID, tvProfile())
				if err == nil && !res.Status.Reserved() {
					err = fmt.Errorf("renegotiation reserved nothing: %v", res.Status)
				}
			}
			b.man.testHookUnlocked = nil
			if err != nil {
				t.Fatal(err)
			}
			if windows != 1 {
				t.Fatalf("%d unlock windows, want 1", windows)
			}
			installed := committed()
			for _, k := range old {
				if slices.Contains(installed, k) {
					t.Errorf("withdrawn reservation %v is held again after the install", k)
				}
			}
			yields("after the install", installed)
			if err := b.man.Abort(s.ID); err != nil {
				t.Fatal(err)
			}
			yields("after abort", nil)
			checkLedgerEmpty(t, b)
		})
	}
}

// TestAdaptReusesWithdrawnArrayRace adapts playing sessions, each step 5
// copying its new hold into the array of the commitment it withdrew, while
// another goroutine walks every live session's holds, completes sessions,
// and completes others inside their adaptation's unlock window, so that
// their installs go stale and release a hold built in a reused array. No two
// live sessions may hold one reservation at any walk, and the ledger ends
// empty. Under -race it also shows that nothing reads a withdrawn array
// while a step 5 writes it.
func TestAdaptReusesWithdrawnArrayRace(t *testing.T) {
	b := newBed(t, cmfs.DefaultConfig(), 200*qos.MBitPerSecond)
	var ids []SessionID
	for range 6 {
		ids = append(ids, playingSession(t, b).ID)
	}
	stale, staled := make(chan SessionID), make(chan struct{})
	windows := 0
	b.man.testHookUnlocked = func(_ string, id SessionID) {
		if windows++; windows%7 == 0 {
			stale <- id
			<-staled
		}
	}
	done := make(chan struct{})
	var walkErr error
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() {
		close(done)
		wg.Wait()
	})
	defer stop()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// completed is the sessions the walk below completed itself.
		completed := make(map[SessionID]bool)
		for walks := 0; ; walks++ {
			select {
			case id := <-stale:
				// Only the walk's own Complete, landed in this same window,
				// may have ended the session first.
				if err := b.man.Complete(id); err != nil && !completed[id] {
					t.Errorf("Complete in the window: %v", err)
				}
				staled <- struct{}{}
			case <-done:
				return
			default:
				if err := CheckHoldsDisjoint(b.man); err != nil && walkErr == nil {
					walkErr = fmt.Errorf("walk %d: %w", walks, err)
				}
				if ps := b.man.Sessions(Playing); walks%100 == 99 && len(ps) > 0 {
					// A playing session may be mid-adaptation: Complete
					// then makes that install stale too.
					id := ps[walks/100%len(ps)].ID
					if b.man.Complete(id) == nil {
						completed[id] = true
					}
				}
			}
		}
	}()
	for range 150 {
		for i, id := range ids {
			if _, err := b.man.Adapt(id); err != nil {
				// Completed, or aborted by a failed adaptation: play
				// another in its place.
				ids[i] = playingSession(t, b).ID
			}
		}
	}
	stop()
	b.man.testHookUnlocked = nil
	if walkErr != nil {
		t.Error(walkErr)
	}
	st := b.man.Stats()
	t.Logf("%d adaptations, %d stale installs", st.Adaptations, st.StaleInstalls)
	if st.Adaptations == 0 || st.StaleInstalls == 0 {
		t.Errorf("%d adaptations, %d stale installs; want some of each", st.Adaptations, st.StaleInstalls)
	}
	if err := CheckHoldsDisjoint(b.man); err != nil {
		t.Error(err)
	}
	for _, id := range ids {
		b.man.Abort(id)
	}
	checkLedgerEmpty(t, b)
}
