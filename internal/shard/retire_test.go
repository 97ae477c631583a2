package shard_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/testbed"
)

// TestRetiredSessionSemantics pins what every session-addressed call answers
// for a live session, for a retired one still in the tombstone ring (ended by
// rejection, by the choice-period time-out, by completion) and for one the
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
				// fresh makes a live session in the state the call applies to.
				fresh func() core.SessionID
			}{
				{"Session", func(id core.SessionID) error { _, err := m.Session(id); return err }, reserve},
				{"Confirm", m.Confirm, reserve},
				{"Reject", m.Reject, reserve},
				{"Expire", m.Expire, reserve},
				{"Renegotiate", func(id core.SessionID) error { _, err := m.RenegotiateContext(ctx, id, u); return err }, reserve},
				{"Adapt", func(id core.SessionID) error { _, err := m.AdaptContext(ctx, id); return err }, play},
				{"Complete", m.Complete, play},
				{"Abort", m.Abort, play},
				{"Invoice", func(id core.SessionID) error { _, err := m.Invoice(id); return err }, reserve},
			}
			// What a terminal session answers, in or out of the live table.
			wantRetired := func(call, how string) error {
				switch {
				case call == "Session" || call == "Abort":
					return nil
				case call == "Adapt" || call == "Complete" || call == "Invoice" || how != "expired":
					return core.ErrBadState
				}
				return core.ErrChoicePeriodExpired
			}
			for _, c := range calls {
				id := c.fresh()
				if err := c.call(id); err != nil {
					t.Errorf("%s on a live session: %v", c.name, err)
				}
				m.Abort(id)
				for how, id := range retired {
					if err, want := c.call(id), wantRetired(c.name, how); !errors.Is(err, want) || (want == nil && err != nil) {
						t.Errorf("%s on a %s session in the ring: %v, want %v", c.name, how, err, want)
					}
				}
				if err := c.call(evicted); !errors.Is(err, core.ErrUnknownSession) {
					t.Errorf("%s on a session evicted from the ring: %v, want %v", c.name, err, core.ErrUnknownSession)
				}
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
