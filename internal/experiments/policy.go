package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/media"
	"qosneg/internal/policy"
	"qosneg/internal/qos"
	"qosneg/internal/testbed"
)

func init() {
	register(Experiment{
		ID:    "E20",
		Title: "Learning-based server selection: static tie-break vs contextual bandit",
		Paper: "extension; step 5's arbitrary tie-break made learnable (DESIGN.md §15)",
		Run:   runE20,
	})
}

// e20Article is a news article whose every quality level is replicated on
// all three servers: the classifier ranks the replicas equal (same QoS,
// same OIF, same cost), so step 5 faces a genuine tie and the policy layer
// decides which server to try first. The classical tie-break falls through
// to the offer key — variant ids — which always prefers server-1.
func e20Article(id media.DocumentID) media.Document {
	const duration = 2 * time.Minute
	servers := []media.ServerID{"server-1", "server-2", "server-3"}
	doc := media.Document{ID: id, Title: "Replicated article " + string(id), CopyrightFee: 500}
	video := media.Monomedia{ID: "video", Kind: qos.Video, Name: "video", Duration: duration}
	for qi, v := range []qos.VideoQoS{
		{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
		{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution},
	} {
		for si, srv := range servers {
			vid := media.VariantID(fmt.Sprintf("video-q%d-s%d", qi+1, si+1))
			video.Variants = append(video.Variants, media.VideoVariant(vid, srv, media.MPEG1, v, duration))
		}
	}
	doc.Monomedia = append(doc.Monomedia, video)
	audio := media.Monomedia{ID: "audio", Kind: qos.Audio, Name: "audio", Duration: duration}
	audio.Variants = append(audio.Variants,
		media.AudioVariant("audio-v1", "server-2", media.MPEG1Audio, qos.AudioQoS{Grade: qos.CDQuality}, duration))
	doc.Monomedia = append(doc.Monomedia, audio)
	doc.Temporal = append(doc.Temporal, media.TemporalConstraint{
		A: "video", B: "audio", Relation: media.Parallel, Tolerance: 80 * time.Millisecond,
	})
	return doc
}

// e20Bed assembles the study substrate: 3 servers, the replicated catalog,
// and a deterministic injector. The circuit breaker is disabled so the
// comparison isolates what the *policy* learns — with the breaker on, a
// quarantine would eventually rescue the static order too, and the study
// would measure the breaker's threshold instead of the policy.
func e20Bed(bandit bool, faulty bool) (*testbed.Bed, *faults.Injector, *policy.Bandit) {
	opts := core.DefaultOptions()
	opts.Health = core.HealthPolicy{FailureThreshold: 0}
	var b *policy.Bandit
	if bandit {
		b = policy.NewBandit(policy.DefaultConfig())
		opts.Selection = b
		opts.Adaptation = b
	}
	inj := faults.New(1996)
	bed := testbed.MustNew(testbed.Spec{
		Clients: 2,
		Servers: 3,
		Options: &opts,
		Faults:  inj,
	})
	if err := bed.Registry.Add(e20Article("news-1")); err != nil {
		panic(err)
	}
	if faulty {
		// The fault weather targets exactly the server the classical
		// tie-break prefers: server-1 drops 90% of reservations.
		if s, ok := inj.Server("server-1"); ok {
			s.SetReserveFailure(0.9)
		}
	}
	return bed, inj, b
}

// e20Outcome tallies one policy × scenario run.
type e20Outcome struct {
	negotiations  int
	succeeded     int
	failedCommits int
	// lastFailing is the 1-based index of the last negotiation that burned
	// at least one failed commit attempt — the policy's time-to-adapt in
	// units of negotiations (0: never failed).
	lastFailing int
	goodput     float64 // successful negotiations per second
	leak        error
}

func (o e20Outcome) failRate() float64 {
	if o.negotiations == 0 {
		return 0
	}
	return float64(o.failedCommits) / float64(o.negotiations)
}

// e20Drive runs count sequential negotiations and winds each one down,
// tracking per-negotiation commit-failure deltas.
func e20Drive(bandit, faulty bool, count int) e20Outcome {
	bed, _, _ := e20Bed(bandit, faulty)
	u := tvRequest()
	u.Desired.Cost.MaxCost = cost.Dollars(20)
	u.Worst.Cost.MaxCost = cost.Dollars(20)
	out := e20Outcome{negotiations: count}
	prevFails := 0
	start := time.Now()
	for i := 1; i <= count; i++ {
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1+i%2), "news-1", u)
		if err != nil {
			break
		}
		if res.Session != nil {
			if res.Status.Reserved() {
				out.succeeded++
			}
			bed.Manager.Reject(res.Session.ID)
		}
		st := bed.Manager.Stats()
		fails := st.CommitServerDown + st.CommitCapacity + st.CommitConstraint
		if fails > prevFails {
			out.lastFailing = i
		}
		prevFails = fails
	}
	out.failedCommits = prevFails
	out.goodput = float64(out.succeeded) / time.Since(start).Seconds()
	out.leak = bed.Ledger.CheckEmpty()
	return out
}

// runE20 is the selection-policy study: identical catalogs, identical fault
// weather, the only difference being who orders step 5's tie runs — the
// paper's fixed tie-break or the learning bandit. On the clean scenario the
// two must tie (no failures for either); under faults the bandit must burn
// strictly fewer failed commitments and stop failing earlier, because after
// a handful of observations it stops leading with the flaky server the
// lexical tie-break is locked onto.
func runE20(w io.Writer) error {
	const count = 150
	fmt.Fprintln(w, "3 servers, every video quality replicated on all of them: the classifier ranks")
	fmt.Fprintln(w, "the replicas equal, so step 5's order among them is the policy's to choose.")
	fmt.Fprintln(w, "Classical order always tries server-1 first (offer-key tie-break); the faulty")
	fmt.Fprintln(w, "scenario makes exactly that server drop 90% of reservations. Breaker disabled")
	fmt.Fprintf(w, "to isolate the policy; %d sequential negotiations per cell.\n\n", count)
	fmt.Fprintf(w, "%-8s %-8s %9s %12s %11s %14s %10s\n",
		"scenario", "policy", "accepted", "failedCommit", "fails/neg", "lastFail@neg", "goodput/s")
	type cell struct {
		scenario string
		faulty   bool
		bandit   bool
	}
	results := map[cell]e20Outcome{}
	for _, c := range []cell{
		{"clean", false, false}, {"clean", false, true},
		{"faulty", true, false}, {"faulty", true, true},
	} {
		out := e20Drive(c.bandit, c.faulty, count)
		results[c] = out
		name := "static"
		if c.bandit {
			name = "bandit"
		}
		fmt.Fprintf(w, "%-8s %-8s %9d %12d %11.2f %14d %10.0f\n",
			c.scenario, name, out.succeeded, out.failedCommits, out.failRate(), out.lastFailing, out.goodput)
		if out.leak != nil {
			fmt.Fprintf(w, "  LEAK in %s/%s: %v\n", c.scenario, name, out.leak)
		}
	}
	cleanStatic := results[cell{"clean", false, false}]
	cleanBandit := results[cell{"clean", false, true}]
	faultyStatic := results[cell{"faulty", true, false}]
	faultyBandit := results[cell{"faulty", true, true}]
	fmt.Fprintln(w)
	switch {
	case cleanStatic.failedCommits != 0 || cleanBandit.failedCommits != 0:
		fmt.Fprintln(w, "UNEXPECTED: failures on the clean scenario")
	case faultyBandit.failedCommits >= faultyStatic.failedCommits:
		fmt.Fprintln(w, "UNEXPECTED: bandit did not beat the static tie-break under faults")
	case faultyBandit.lastFailing >= faultyStatic.lastFailing:
		fmt.Fprintln(w, "UNEXPECTED: bandit did not stop failing earlier than static")
	default:
		fmt.Fprintf(w, "bandit burned %.0f%% fewer failed commitments than static under identical\n",
			100*(1-float64(faultyBandit.failedCommits)/float64(faultyStatic.failedCommits)))
		fmt.Fprintf(w, "fault weather (last failed attempt at negotiation %d vs %d) and tied clean;\n",
			faultyBandit.lastFailing, faultyStatic.lastFailing)
		fmt.Fprintln(w, "ledger: empty after every cell (all reservations wound down)")
	}
	return nil
}
