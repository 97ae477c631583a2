package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"qosneg/internal/adaptation"
	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/session"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
)

// This file regenerates E7 (the automatic adaptation walk-through of
// Section 4) and E10 (the choicePeriod confirmation timer of Section 8).

func init() {
	register(Experiment{
		ID:    "E7",
		Title: "Automatic adaptation: congestion mid-playout, transparent switch",
		Paper: "Section 4 (end)",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E10",
		Title: "choicePeriod: confirm in time vs. time-out",
		Paper: "Section 8 (information window)",
		Run:   runE10,
	})
}

func runE7(w io.Writer) error {
	bed := testbed.MustNew(testbed.Spec{})
	doc, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute)
	if err != nil {
		return err
	}
	res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", tvRequest())
	if err != nil {
		return err
	}
	if !res.Status.Reserved() {
		return fmt.Errorf("negotiation failed: %v", res.Status)
	}
	s := res.Session
	fmt.Fprintf(w, "t=0s    negotiation %s: %s\n", res.Status, s.Current.SystemOffer)

	eng := sim.NewEngine()
	var servers []*cmfs.Server
	for _, id := range bed.ServerIDs() {
		servers = append(servers, bed.Servers[id])
	}
	mon := adaptation.New(bed.Manager, bed.Network, servers...)
	mon.Attach(clock.Sim(eng), func(r adaptation.Report) {
		for _, tr := range r.Adapted {
			fmt.Fprintf(w, "t=%-5s adaptation: switched to %s (position preserved at %s)\n",
				eng.Now(), tr.To.SystemOffer, time.Duration(tr.Position))
		}
		for _, id := range r.Failed {
			fmt.Fprintf(w, "t=%-5s adaptation FAILED for session %d\n", eng.Now(), id)
		}
	})

	player := session.NewPlayer(clock.Sim(eng), bed.Manager, time.Second)
	var out *session.Outcome
	if err := player.Play(s, doc, func(o session.Outcome) { out = &o }); err != nil {
		return err
	}
	victim := s.Current.Choices[0].Variant.Server
	eng.MustSchedule(30*time.Second, func() {
		fmt.Fprintf(w, "t=%-5s CONGESTION: server %s loses 99%% of its disk bandwidth\n", eng.Now(), victim)
		bed.Servers[victim].SetDegradation(0.99)
	})
	eng.Run(10 * time.Minute)
	if out == nil {
		return fmt.Errorf("playout never finished")
	}
	fmt.Fprintf(w, "t=%-5s playout %s at position %s after %d transition(s)\n",
		out.FinishedAt, out.State, out.Position, out.Transitions)
	fmt.Fprintln(w, "paper: the QoS manager re-runs step 5 on the remaining ordered offers and")
	fmt.Fprintln(w, "restarts the presentation from the obtained position, without user intervention.")
	return nil
}

func runE10(w io.Writer) error {
	bed := testbed.MustNew(testbed.Spec{})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		return err
	}
	eng := sim.NewEngine()

	// Scenario A: the user confirms inside the choice period.
	resA, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", tvRequest())
	if err != nil {
		return err
	}
	choice := resA.Session.ChoicePeriod
	fmt.Fprintf(w, "choice period: %s\n", choice)
	timerA, _ := eng.Schedule(choice, func() { bed.Manager.Reject(resA.Session.ID) })
	eng.MustSchedule(choice/2, func() {
		bed.Manager.Confirm(resA.Session.ID)
		timerA.Stop()
	})

	// Scenario B: the user never presses OK; the timer aborts the session.
	resB, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", tvRequest())
	if err != nil {
		return err
	}
	eng.MustSchedule(choice, func() { bed.Manager.Reject(resB.Session.ID) })

	eng.Run(2 * choice)
	fmt.Fprintf(w, "session A: confirmed at t=%s → state %s\n", choice/2, resA.Session.State())
	fmt.Fprintf(w, "session B: no confirmation     → state %s (resources reclaimed)\n", resB.Session.State())
	if resA.Session.State() != core.Playing || resB.Session.State() != core.Aborted {
		return fmt.Errorf("unexpected states: %v / %v", resA.Session.State(), resB.Session.State())
	}
	fmt.Fprintf(w, "network reservations live: %d (session A's two streams)\n", bed.Network.ActiveReservations())
	fmt.Fprintln(w, `paper: "If a time-out is reached before pressing OK, the session is simply`)
	fmt.Fprintln(w, ` aborted and a new negotiation is required if the user wants to play the article."`)
	return nil
}
