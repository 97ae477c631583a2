package core

import (
	"context"
	"testing"
	"time"

	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/telemetry"
)

// refusalCase sets up one way for step 5 to refuse the bed's best offer;
// it returns the document, profile and offer to attempt.
type refusalCase struct {
	name   string
	status string
	detail string
	setup  func(t *testing.T, b *bed, r offer.Ranked) (media.Document, profile.UserProfile, offer.Ranked)
}

// TestRefusalDetailText pins the span Detail of every refusal step 5 can
// make, byte for byte: the text operators read in -verbose logs and at
// /debug/trace. The clock is frozen, so the quarantine's remaining time is
// exact.
func TestRefusalDetailText(t *testing.T) {
	keep := func(t *testing.T, b *bed, r offer.Ranked) (media.Document, profile.UserProfile, offer.Ranked) {
		return b.doc, tvProfile(), r
	}
	cases := []refusalCase{
		{
			name:   "quarantined",
			status: "server-down",
			detail: "server-down server-1: core: media server down: server-1 quarantined for 1m30s",
			setup: func(t *testing.T, b *bed, r offer.Ranked) (media.Document, profile.UserProfile, offer.Ranked) {
				// Hard-down evidence on the frozen clock quarantines
				// server-1 for exactly 90s.
				b.man.opts.Health.Cooldown = 90 * time.Second
				b.man.recordCommitFailure(commitFailure{cause: CauseServerDown, kind: refusedReserve, server: "server-1", err: ErrServerDown}, cost.BestEffort)
				return keep(t, b, r)
			},
		},
		{
			name:   "not registered",
			status: "server-down",
			detail: "server-down server-9: core: media server down: server-9 not registered",
			setup: func(t *testing.T, b *bed, r offer.Ranked) (media.Document, profile.UserProfile, offer.Ranked) {
				so := *r.SystemOffer
				so.Choices = append([]offer.Choice(nil), so.Choices...)
				v := *so.Choices[0].Variant // the variant is shared with the cache: copy it first
				v.Server = "server-9"
				so.Choices[0].Variant = &v
				r.SystemOffer = &so
				return keep(t, b, r)
			},
		},
		{
			name:   "reserve refused",
			status: "capacity",
			detail: "capacity server-1: reserve on server-1: cmfs: admission test failed: server server-1 needs 324000 bytes/round, budget 79040",
			setup: func(t *testing.T, b *bed, r offer.Ranked) (media.Document, profile.UserProfile, offer.Ranked) {
				if err := b.servers["server-1"].SetDegradation(0.99); err != nil {
					t.Fatal(err)
				}
				return keep(t, b, r)
			},
		},
		{
			name:   "connect refused",
			status: "capacity",
			detail: "capacity server-1: connect server-1 -> client-1: transport: no feasible path can be reserved: network: no feasible path: server-1 → client-1 for max 7.78 Mbit/s avg 2.59 Mbit/s jitter 10ms loss 0.003",
			setup: func(t *testing.T, b *bed, r offer.Ranked) (media.Document, profile.UserProfile, offer.Ranked) {
				if err := b.net.SetLinkDegradation("access-client-1:rev", 0.99); err != nil {
					t.Fatal(err)
				}
				return keep(t, b, r)
			},
		},
		{
			name:   "connect refused after a held choice",
			status: "capacity",
			detail: "capacity server-2: connect server-2 -> client-1: transport: no feasible path can be reserved: network: no feasible path: server-2 → client-1 for max 1.41 Mbit/s avg 1.41 Mbit/s jitter 5ms loss 0.001",
			setup: func(t *testing.T, b *bed, r offer.Ranked) (media.Document, profile.UserProfile, offer.Ranked) {
				if err := b.net.SetLinkDegradation("backbone-server-2:rev", 0.9999); err != nil {
					t.Fatal(err)
				}
				return keep(t, b, r)
			},
		},
		{
			name:   "start delay",
			status: "constraint",
			detail: "constraint: start delay 1.003s exceeds profile bound 1ms",
			setup: func(t *testing.T, b *bed, r offer.Ranked) (media.Document, profile.UserProfile, offer.Ranked) {
				u := tvProfile()
				u.Desired.Time.MaxStartDelay = time.Millisecond
				return b.doc, u, r
			},
		},
		{
			name:   "sync tolerance",
			status: "constraint",
			detail: "constraint: combined jitter 4ms exceeds sync tolerance 1ms between video and audio",
			setup: func(t *testing.T, b *bed, r offer.Ranked) (media.Document, profile.UserProfile, offer.Ranked) {
				doc := b.doc
				doc.Temporal = []media.TemporalConstraint{{A: "video", B: "audio", Relation: media.Parallel, Tolerance: time.Millisecond}}
				return doc, tvProfile(), r
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring := telemetry.NewRing(64)
			b := metricsBed(t, nil, ring)
			b.man.clk = clock.Sim(sim.NewEngine())
			res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
			if err != nil || res.Session == nil {
				t.Fatalf("negotiate: %v (%+v)", err, res.Status)
			}
			best := res.Session.Ranked()[0]
			if err := b.man.Reject(res.Session.ID); err != nil {
				t.Fatal(err)
			}
			doc, u, r := tc.setup(t, b, best)
			before := len(ring.Events())
			c, err := b.man.commitFirst(context.Background(), &b.mach, &doc, &u, presorted([]offer.Ranked{r}), nil, nil, nil, "negotiate")
			if err != nil {
				t.Fatal(err)
			}
			if c.ok {
				t.Fatal("the offer committed; the case does not refuse it")
			}
			var got []telemetry.Event
			for _, e := range ring.Events()[before:] {
				if e.Step == telemetry.StepCommitment {
					got = append(got, e)
				}
			}
			if len(got) != 1 {
				t.Fatalf("commitment events = %+v, want one refusal", got)
			}
			if got[0].Status != tc.status || got[0].Detail != tc.detail {
				t.Errorf("refusal span: status %q detail\n\t%q\nwant status %q detail\n\t%q", got[0].Status, got[0].Detail, tc.status, tc.detail)
			}
			if open := b.led.Open(); open != 0 {
				t.Errorf("the refused attempt left %d resources held", open)
			}
		})
	}
}

// TestPlanRefusalRendersReserveError holds the text of a refusal the plan
// finds, kept as figures, to the error a Reserve on the same server renders,
// for both checks of the admission test: the stream cap and the round
// budget.
func TestPlanRefusalRendersReserveError(t *testing.T) {
	q := qos.NetworkQoS{AvgBitRate: 2 * qos.MBitPerSecond, MaxBitRate: 4 * qos.MBitPerSecond}
	capped := cmfs.DefaultConfig()
	capped.MaxStreams = 2
	for _, tc := range []struct {
		name string
		cfg  cmfs.Config
		kind refusal
	}{
		{"stream cap", capped, refusedStreamCap},
		{"round budget", cmfs.DefaultConfig(), refusedRoundBudget},
	} {
		srv := cmfs.MustServer("server-1", tc.cfg)
		var planned commitFailure
		for planned.cause == CauseNone {
			if p, err := srv.Plan(q, cmfs.Plan{}); err != nil {
				planned = planRefusal("server-1", p, err)
			} else if _, err := srv.Reserve(q); err != nil {
				t.Fatalf("%s: the plan admitted what Reserve refuses: %v", tc.name, err)
			}
		}
		_, rerr := srv.Reserve(q)
		reserved := commitFailure{cause: refusalCause(rerr), kind: refusedReserve, server: "server-1", err: rerr}
		if planned.kind != tc.kind || planned.cause != CauseCapacity {
			t.Errorf("%s: plan refusal is kind %d cause %v, want kind %d, capacity", tc.name, planned.kind, planned.cause, tc.kind)
		}
		if got, want := planned.String(), reserved.String(); got != want {
			t.Errorf("%s: plan refusal renders\n\t%q\nReserve's\n\t%q", tc.name, got, want)
		}
	}
}

// TestRefusalAllocBound pins that step 5 refuses an offer for free: over
// offers whose first choice the CMFS admission test refuses, each refused
// attempt allocates no more than the bare refused cmfs.Server.Reserve
// inside it. The refusal is a value; its text is rendered only for a
// tracer, and this bed has none.
func TestRefusalAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short race beds")
	}
	if raceDetectorOn {
		t.Skip("sync.Pool sheds under -race, so fmt's printers allocate at random")
	}
	b := defaultBed(t)
	u := tvProfile()
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
	if err != nil || res.Session == nil {
		t.Fatalf("negotiate: %v (%+v)", err, res.Status)
	}
	var offers []offer.Ranked
	for _, r := range res.Session.Ranked() {
		if r.Choices[0].Variant.Server == "server-1" {
			offers = append(offers, r)
		}
	}
	if err := b.man.Reject(res.Session.ID); err != nil {
		t.Fatal(err)
	}
	if len(offers) < 4 {
		t.Fatalf("%d offers start on server-1, want at least 4", len(offers))
	}
	srv := b.servers["server-1"]
	if err := srv.SetDegradation(0.99); err != nil {
		t.Fatal(err)
	}
	q := offers[0].Choices[0].Variant.NetworkQoS()
	bare := testing.AllocsPerRun(200, func() {
		if _, err := srv.Reserve(q); err == nil {
			t.Fatal("the degraded server admitted the stream")
		}
	})
	const runs = 200
	total := testing.AllocsPerRun(runs, func() {
		c, err := b.man.commitFirst(context.Background(), &b.mach, &b.doc, &u, presorted(offers), nil, nil, nil, "negotiate")
		if err != nil || c.ok || c.capacities != len(offers) {
			t.Fatalf("commitFirst: ok %v, %d capacity refusals of %d offers, err %v", c.ok, c.capacities, len(offers), err)
		}
	})
	perAttempt := total / float64(len(offers))
	t.Logf("refused attempt: %.2f allocs; bare refused Reserve: %.0f", perAttempt, bare)
	if perAttempt > bare {
		t.Errorf("a refused attempt allocates %.2f objects, the refused Reserve inside it %.0f: step 5 adds %.2f per refusal, want 0",
			perAttempt, bare, perAttempt-bare)
	}
	if open := b.led.Open(); open != 0 {
		t.Errorf("refused attempts left %d resources held", open)
	}
}
