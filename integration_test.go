package qosneg

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qosneg/internal/adaptation"
	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/session"
	"qosneg/internal/sim"
	"qosneg/internal/workload"
)

// TestFullLifecycle drives the complete pipeline end-to-end through the
// public facade: negotiate → confirm → play → mid-stream congestion →
// automatic adaptation → completion, with resource and revenue accounting
// checked at every stage.
func TestFullLifecycle(t *testing.T) {
	sys, err := New(WithClients(2), WithServers(2))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sys.AddNewsArticle("news-1", "Election night", 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	res, err := sys.Negotiate(context.Background(), "client-1", doc.ID, "tv-quality")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Succeeded {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	price := res.Session.Cost()

	eng := sim.NewEngine()
	var reports []adaptation.Report
	sys.Monitor().Attach(eng, 5*time.Second, func(r adaptation.Report) { reports = append(reports, r) })

	var out session.Outcome
	if err := sys.Player(eng).Play(res.Session, doc, func(o session.Outcome) { out = o }); err != nil {
		t.Fatal(err)
	}
	victim := res.Session.Current.Choices[0].Variant.Server
	eng.MustSchedule(40*time.Second, func() {
		sys.Servers[victim].SetDegradation(0.99)
	})
	eng.Run(10 * time.Minute)

	if out.State != core.Completed {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Transitions != 1 {
		t.Errorf("transitions = %d", out.Transitions)
	}
	if len(reports) == 0 {
		t.Error("monitor never reported")
	}
	if sys.Network.ActiveReservations() != 0 {
		t.Error("reservations leaked")
	}
	st := sys.Manager.Stats()
	if st.Revenue != price {
		t.Errorf("revenue = %v, want %v", st.Revenue, price)
	}
	if st.Adaptations != 1 {
		t.Errorf("adaptations = %d", st.Adaptations)
	}
}

// lifecycleTrace runs a seeded multi-user simulation and returns a
// deterministic fingerprint of everything that happened.
func lifecycleTrace(t *testing.T, seed int64) string {
	t.Helper()
	sys, err := New(WithClients(4), WithServers(3), WithAccessCapacity(25*qos.MBitPerSecond))
	if err != nil {
		t.Fatal(err)
	}
	var ids []media.DocumentID
	var machines []client.Machine
	for i := 1; i <= 5; i++ {
		id := media.DocumentID(fmt.Sprintf("news-%d", i))
		if _, err := sys.AddNewsArticle(id, fmt.Sprintf("A%d", i), 90*time.Second); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 1; i <= 4; i++ {
		m, _ := sys.Client(fmt.Sprintf("client-%d", i))
		machines = append(machines, m)
	}
	gen, err := workload.NewGenerator(workload.Spec{
		Seed:             seed,
		MeanInterArrival: 4 * time.Second,
		Documents:        ids,
		Clients:          machines,
		Profiles:         profile.DefaultProfiles(),
		Weights:          []int{3, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	player := sys.Player(eng)
	sys.Monitor().Attach(eng, 5*time.Second, nil)
	fingerprint := ""
	gen.Drive(eng, 80, func(req workload.Request) {
		res, err := sys.Manager.NegotiateContext(context.Background(), req.Client, req.Document, req.Profile)
		if err != nil {
			t.Fatal(err)
		}
		fingerprint += fmt.Sprintf("%s@%s=%s;", req.Document, eng.Now(), res.Status)
		if res.Status.Reserved() {
			doc, _ := sys.Registry.Document(req.Document)
			player.Play(res.Session, doc, nil)
		}
	})
	eng.MustSchedule(time.Minute, func() { sys.Servers["server-1"].SetDegradation(0.8) })
	eng.MustSchedule(3*time.Minute, func() { sys.Servers["server-1"].SetDegradation(0) })
	eng.Run(30 * time.Minute)
	st := sys.Manager.Stats()
	fingerprint += fmt.Sprintf("stats=%+v", st)
	if sys.Network.ActiveReservations() != 0 {
		t.Fatalf("seed %d leaked %d reservations", seed, sys.Network.ActiveReservations())
	}
	return fingerprint
}

// TestSimulationDeterminism replays the same seeded scenario twice and
// demands bit-identical trajectories — the property every experiment in
// EXPERIMENTS.md relies on.
func TestSimulationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation soak")
	}
	a := lifecycleTrace(t, 1996)
	b := lifecycleTrace(t, 1996)
	if a != b {
		t.Fatal("identical seeds produced different trajectories")
	}
	c := lifecycleTrace(t, 7)
	if a == c {
		t.Error("different seeds produced identical trajectories")
	}
}

// TestSoak runs a long mixed scenario across several seeds and checks the
// global invariants at the end of each.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation soak")
	}
	for _, seed := range []int64{1, 2, 3} {
		lifecycleTrace(t, seed) // asserts leak-freedom internally
	}
}
