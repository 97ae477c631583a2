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

// e20Bed assembles one cell's substrate: 3 servers, the replicated catalog,
// a deterministic injector that makes server-1 — the server the classical
// tie-break prefers — drop the given share of its reservations, and the
// given breaker.
func e20Bed(health core.HealthPolicy, bandit bool, drop float64) *testbed.Bed {
	opts := core.DefaultOptions()
	opts.Health = health
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
	if s, ok := inj.Server("server-1"); ok {
		s.SetReserveFailure(drop)
	}
	return bed
}

// e20Outcome tallies one cell.
type e20Outcome struct {
	succeeded     int
	failedCommits int
	// lastFailing is the 1-based index of the last negotiation that burned
	// at least one failed commit attempt — the policy's time-to-adapt in
	// units of negotiations (0: never failed).
	lastFailing int
	leak        error
}

// e20Drive runs count sequential negotiations on a cell's bed and winds
// each one down, tracking per-negotiation commit-failure deltas.
func e20Drive(bed *testbed.Bed, count int) e20Outcome {
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

// The study's matrix: breaker × server-1 drop rate × policy.
var (
	e20Health = [2]struct {
		name   string
		health core.HealthPolicy
	}{{"off", core.HealthPolicy{}}, {"default", core.DefaultHealthPolicy()}}
	e20Drops    = [4]float64{0, 0.2, 0.5, 0.9}
	e20Policies = [2]string{"static", "bandit"}
)

// e20Matrix holds an outcome per cell, indexed as the matrix's variables.
type e20Matrix [len(e20Health)][len(e20Drops)][len(e20Policies)]e20Outcome

// e20Verdict checks the study's claims: no cell leaks; on the clean
// scenario neither policy fails a commit; the bandit fails strictly fewer
// commits than static in every faulty cell without the breaker, and in the
// 20 % cell with it, where server-1's failures never come three in a row,
// so the breaker never trips; and it fails no more than static in every
// other faulty cell, where the breaker's quarantine rescues static too.
func e20Verdict(m e20Matrix) error {
	for b, breaker := range e20Health {
		for d, drop := range e20Drops {
			static, bandit := m[b][d][0], m[b][d][1]
			cell := fmt.Sprintf("breaker %s, drop %.0f%%", breaker.name, 100*drop)
			for p, pol := range e20Policies {
				if err := m[b][d][p].leak; err != nil {
					return fmt.Errorf("LEAK in %s, %s: %w", cell, pol, err)
				}
			}
			switch {
			case drop == 0:
				if static.failedCommits != 0 || bandit.failedCommits != 0 {
					return fmt.Errorf("%s: failures on the clean scenario (static %d, bandit %d)",
						cell, static.failedCommits, bandit.failedCommits)
				}
			case breaker.name == "off" || drop == 0.2:
				if bandit.failedCommits >= static.failedCommits {
					return fmt.Errorf("%s: bandit did not beat the static tie-break (%d vs %d failed commitments)",
						cell, bandit.failedCommits, static.failedCommits)
				}
			case bandit.failedCommits > static.failedCommits:
				return fmt.Errorf("%s: bandit failed more commitments than the static tie-break (%d vs %d)",
					cell, bandit.failedCommits, static.failedCommits)
			}
		}
	}
	return nil
}

// runE20 is the selection-policy study: identical catalogs, identical fault
// weather, the only difference in each pair of cells being who orders step
// 5's tie runs — the paper's fixed tie-break or the bandit — with the
// breaker off and as the daemon ships it.
func runE20(w io.Writer) error {
	const count = 150
	fmt.Fprintln(w, "3 servers, every video quality replicated on all of them: the classifier ranks")
	fmt.Fprintln(w, "the replicas equal, so step 5's order among them is the policy's to choose.")
	fmt.Fprintln(w, "Classical order always tries server-1 first (offer-key tie-break); each faulty")
	fmt.Fprintln(w, "scenario makes exactly that server drop a share of its reservations. The breaker")
	fmt.Fprintf(w, "is off, or the daemon's default (%d consecutive failures quarantine a server for\n", core.DefaultHealthPolicy().FailureThreshold)
	fmt.Fprintf(w, "%s, longer than a cell runs); %d sequential negotiations per cell.\n\n", core.DefaultCooldown, count)
	fmt.Fprintf(w, "%-8s %5s %-7s %9s %13s %13s\n", "breaker", "drop", "policy", "accepted", "failedCommit", "lastFail@neg")
	var m e20Matrix
	for b, breaker := range e20Health {
		for d, drop := range e20Drops {
			for p, pol := range e20Policies {
				out := e20Drive(e20Bed(breaker.health, pol == "bandit", drop), count)
				m[b][d][p] = out
				fmt.Fprintf(w, "%-8s %4.0f%% %-7s %9d %13d %13d\n", breaker.name, 100*drop, pol,
					out.succeeded, out.failedCommits, out.lastFailing)
			}
		}
	}
	if err := e20Verdict(m); err != nil {
		return err
	}
	fmt.Fprintln(w)
	for b, breaker := range e20Health {
		fmt.Fprintf(w, "breaker %-7s failed commitments at 20/50/90%% drop: static %d/%d/%d, bandit %d/%d/%d\n", breaker.name,
			m[b][1][0].failedCommits, m[b][2][0].failedCommits, m[b][3][0].failedCommits,
			m[b][1][1].failedCommits, m[b][2][1].failedCommits, m[b][3][1].failedCommits)
	}
	fmt.Fprintln(w, "both policies tied clean; ledger: empty after every cell (all reservations wound down)")
	return nil
}
