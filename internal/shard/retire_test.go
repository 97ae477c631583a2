package shard_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/testbed"
)

// TestRetiredSessionSemantics pins what every session-addressed call answers,
// sentinel and text, for a live session in the state it applies to and in
// the other live state, for a retired one still in the tombstone ring (ended
// by rejection, by the choice-period time-out, by completion) and for one the
// ring has since overwritten — on the default one-shard fleet (Spec.Shards 0)
// and on a 4-shard fleet, whose shards each keep their own ring.
func TestRetiredSessionSemantics(t *testing.T) {
	for _, shards := range []int{0, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			bed := testbed.MustNew(testbed.Spec{Shards: shards})
			if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
				t.Fatal(err)
			}
			m, ctx, u := bed.Manager, context.Background(), stressProfile()
			reserve := func() core.SessionID {
				t.Helper()
				res, err := m.NegotiateContext(ctx, bed.Client(1), "news-1", u)
				if err != nil || res.Session == nil {
					t.Fatalf("negotiate: %v (%v %s)", err, res.Status, res.Reason)
				}
				return res.Session.ID
			}
			play := func() core.SessionID {
				t.Helper()
				id := reserve()
				if err := m.Confirm(id); err != nil {
					t.Fatal(err)
				}
				return id
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}

			// One session ends first and is pushed out of every shard's ring
			// by the churn that follows; three more end after it.
			evicted := reserve()
			must(m.Reject(evicted))
			for i := 0; i < (core.TombstoneRing+1)*max(shards, 1); i++ {
				must(m.Reject(reserve()))
			}
			retired := map[string]core.SessionID{"rejected": reserve(), "expired": reserve(), "completed": play()}
			live, err := m.Session(retired["completed"])
			must(err)
			must(m.Advance(retired["completed"], 3*time.Second))
			wantCost, wantKey := live.Cost(), live.CurrentOffer().Key()
			must(m.Reject(retired["rejected"]))
			must(m.Expire(retired["expired"]))
			must(m.Complete(retired["completed"]))

			calls := []struct {
				name string
				call func(core.SessionID) error
				// fresh makes a live session in the state the call applies
				// to; wrong, when set, one in the other live state.
				fresh, wrong func() core.SessionID
			}{
				{"Session", func(id core.SessionID) error { _, err := m.Session(id); return err }, reserve, nil},
				{"Confirm", m.Confirm, reserve, play},
				{"Reject", m.Reject, reserve, play},
				{"Expire", m.Expire, reserve, play},
				{"Renegotiate", func(id core.SessionID) error { _, err := m.RenegotiateContext(ctx, id, u); return err }, reserve, play},
				{"Adapt", func(id core.SessionID) error { _, err := m.AdaptContext(ctx, id); return err }, play, reserve},
				{"Advance", func(id core.SessionID) error { return m.Advance(id, time.Second) }, play, reserve},
				{"Complete", m.Complete, play, reserve},
				{"Abort", m.Abort, play, nil},
				{"Invoice", func(id core.SessionID) error { _, err := m.Invoice(id); return err }, reserve, nil},
			}
			// check compares an answer with the sentinel and the exact text
			// of the error a call should return; a nil want is success.
			check := func(what string, err, want error, text string) {
				t.Helper()
				if want == nil {
					if err != nil {
						t.Errorf("%s: %v, want success", what, err)
					}
					return
				}
				if !errors.Is(err, want) || err.Error() != text {
					t.Errorf("%s: %v, want %q", what, err, text)
				}
			}
			// badState is the refusal of a call on a session in state st.
			badState := func(call string, st core.SessionState) string {
				return fmt.Sprintf("%v: %s in state %v", core.ErrBadState, strings.ToLower(call), st)
			}
			// What a terminal session answers, in or out of the live table:
			// an expired one reports the time-out to the calls that need a
			// reserved session, every other call and end its state.
			wantRetired := func(call, how string, id core.SessionID) (error, string) {
				st := core.Aborted
				if how == "completed" {
					st = core.Completed
				}
				switch call {
				case "Session", "Abort":
					return nil, ""
				case "Confirm", "Reject", "Expire", "Renegotiate":
					if how == "expired" {
						return core.ErrChoicePeriodExpired, fmt.Sprintf("%v: session %d", core.ErrChoicePeriodExpired, id)
					}
				}
				return core.ErrBadState, badState(call, st)
			}
			for _, c := range calls {
				id := c.fresh()
				check(c.name+" on a live session", c.call(id), nil, "")
				m.Abort(id)
				if c.wrong != nil {
					id := c.wrong()
					s, err := m.Session(id)
					must(err)
					st := s.State()
					check(fmt.Sprintf("%s on a live %v session", c.name, st), c.call(id), core.ErrBadState, badState(c.name, st))
					m.Abort(id)
				}
				for how, id := range retired {
					err := c.call(id)
					want, text := wantRetired(c.name, how, id)
					check(fmt.Sprintf("%s on a %s session in the ring", c.name, how), err, want, text)
				}
				check(c.name+" on a session evicted from the ring", c.call(evicted),
					core.ErrUnknownSession, fmt.Sprintf("%v: %d", core.ErrUnknownSession, evicted))
			}

			// None of those calls changed what the ring remembers.
			for how, id := range retired {
				s, err := m.Session(id)
				must(err)
				wantState := core.Aborted
				if how == "completed" {
					wantState = core.Completed
				}
				if s.State() != wantState || s.Document != "news-1" || s.ID != id {
					t.Errorf("%s session reads back as %d %q %v", how, s.ID, s.Document, s.State())
				}
			}
			done, err := m.Session(retired["completed"])
			must(err)
			if done.Cost() != wantCost || done.CurrentOffer().Key() != wantKey || done.Position() != 3*time.Second || done.Transitions() != 0 {
				t.Errorf("completed session reads back cost %s offer %q position %s transitions %d, want %s %q 3s 0",
					done.Cost(), done.CurrentOffer().Key(), done.Position(), done.Transitions(), wantCost, wantKey)
			}
			if n := len(m.Sessions(core.Reserved)) + len(m.Sessions(core.Playing)); n != 0 {
				t.Errorf("%d live sessions left", n)
			}
			if err := bed.Ledger.CheckEmpty(); err != nil {
				t.Error(err)
			}
		})
	}
}
