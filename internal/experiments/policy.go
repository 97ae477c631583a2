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
func e20Bed(bandit bool, faulty bool) *testbed.Bed {
	opts := core.DefaultOptions()
	opts.Health = core.HealthPolicy{FailureThreshold: 0}
	if bandit {
		opts.Policy = policy.NewBandit()
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
	return bed
}

// e20Outcome tallies one policy × scenario run.
type e20Outcome struct {
	succeeded     int
	failedCommits int
	// lastFailing is the 1-based index of the last negotiation that burned
	// at least one failed commit attempt — the policy's time-to-adapt in
	// units of negotiations (0: never failed).
	lastFailing int
	leak        error
}

// e20Drive runs count sequential negotiations and winds each one down,
// tracking per-negotiation commit-failure deltas.
func e20Drive(bandit, faulty bool, count int) e20Outcome {
	bed := e20Bed(bandit, faulty)
	u := tvRequest()
	u.Desired.Cost.MaxCost = cost.Dollars(20)
	u.Worst.Cost.MaxCost = cost.Dollars(20)
	var out e20Outcome
	prevFails := 0
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
	out.leak = bed.Ledger.CheckEmpty()
	return out
}

// e20Cell is one scenario × policy cell of the study.
type e20Cell struct{ scenario, policy string }

var e20Cells = [4]e20Cell{{"clean", "static"}, {"clean", "bandit"}, {"faulty", "static"}, {"faulty", "bandit"}}

// e20Verdict checks the study's claims: no cell leaks, the two policies tie
// on the clean scenario (no failures for either), and under faults the
// bandit burns strictly fewer failed commitments and stops failing earlier.
// results[i] is the outcome of e20Cells[i].
func e20Verdict(results [4]e20Outcome) error {
	for i, c := range e20Cells {
		if err := results[i].leak; err != nil {
			return fmt.Errorf("LEAK in %s/%s: %w", c.scenario, c.policy, err)
		}
	}
	cleanStatic, cleanBandit, faultyStatic, faultyBandit := results[0], results[1], results[2], results[3]
	switch {
	case cleanStatic.failedCommits != 0 || cleanBandit.failedCommits != 0:
		return fmt.Errorf("failures on the clean scenario (static %d, bandit %d)",
			cleanStatic.failedCommits, cleanBandit.failedCommits)
	case faultyBandit.failedCommits >= faultyStatic.failedCommits:
		return fmt.Errorf("bandit did not beat the static tie-break under faults (%d vs %d failed commitments)",
			faultyBandit.failedCommits, faultyStatic.failedCommits)
	case faultyBandit.lastFailing >= faultyStatic.lastFailing:
		return fmt.Errorf("bandit did not stop failing earlier than static (negotiation %d vs %d)",
			faultyBandit.lastFailing, faultyStatic.lastFailing)
	}
	return nil
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
	fmt.Fprintf(w, "%-8s %-8s %9s %12s %11s %14s\n",
		"scenario", "policy", "accepted", "failedCommit", "fails/neg", "lastFail@neg")
	var results [4]e20Outcome
	for i, c := range e20Cells {
		out := e20Drive(c.policy == "bandit", c.scenario == "faulty", count)
		results[i] = out
		fmt.Fprintf(w, "%-8s %-8s %9d %12d %11.2f %14d\n", c.scenario, c.policy, out.succeeded,
			out.failedCommits, float64(out.failedCommits)/count, out.lastFailing)
	}
	if err := e20Verdict(results); err != nil {
		return err
	}
	faultyStatic, faultyBandit := results[2], results[3]
	fmt.Fprintln(w)
	fmt.Fprintf(w, "bandit burned %.0f%% fewer failed commitments than static under identical\n",
		100*(1-float64(faultyBandit.failedCommits)/float64(faultyStatic.failedCommits)))
	fmt.Fprintf(w, "fault weather (last failed attempt at negotiation %d vs %d) and tied clean;\n",
		faultyBandit.lastFailing, faultyStatic.lastFailing)
	fmt.Fprintln(w, "ledger: empty after every cell (all reservations wound down)")
	return nil
}
