package policy_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/media"
	"qosneg/internal/policy"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
)

func tvProfile() profile.UserProfile {
	return profile.UserProfile{
		Name: "tv",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(20)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(20)},
		},
		Importance: profile.DefaultImportance(),
	}
}

// replicatedArticle builds a document whose video quality levels are each
// replicated on every given server, so the classifier produces tie runs and
// the policy layer has real choices to make.
func replicatedArticle(id media.DocumentID, servers ...media.ServerID) media.Document {
	const duration = 2 * time.Minute
	doc := media.Document{ID: id, Title: "Replicated " + string(id), CopyrightFee: 500}
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
	// Audio lives on a middle server so crashing the edges still leaves a
	// servable document.
	audioHome := servers[len(servers)/2]
	audio := media.Monomedia{ID: "audio", Kind: qos.Audio, Name: "audio", Duration: duration}
	audio.Variants = append(audio.Variants,
		media.AudioVariant("audio-v1", audioHome, media.MPEG1Audio, qos.AudioQoS{Grade: qos.CDQuality}, duration))
	doc.Monomedia = append(doc.Monomedia, audio)
	return doc
}

func candidate(rank int, c cost.Money, servers ...core.PolicyServer) core.PolicyCandidate {
	return core.PolicyCandidate{Rank: rank, Key: fmt.Sprintf("k%d", rank), Cost: c, Servers: servers}
}

// A bandit that has watched one server fail and another succeed must order
// the healthy server's offer first, however the classical tie-break ranked
// them.
func TestBanditLearnsFlakyServer(t *testing.T) {
	b := policy.NewBandit(policy.Config{})
	for i := 0; i < 6; i++ {
		b.ObserveCommit(core.CommitObservation{Server: "server-1", Cause: core.CauseServerDown})
		b.ObserveCommit(core.CommitObservation{Server: "server-2", Cause: core.CauseNone, Latency: time.Millisecond})
	}
	perm := b.OrderCommits([]core.PolicyCandidate{
		candidate(0, 100, core.PolicyServer{ID: "server-1"}),
		candidate(1, 100, core.PolicyServer{ID: "server-2"}),
	})
	if len(perm) != 2 || perm[0] != 1 {
		t.Fatalf("order after evidence = %v, want healthy server-2 first", perm)
	}
	// The offer is only as good as its weakest server: pairing the healthy
	// server with the flaky one must not outrank the all-healthy offer.
	perm = b.OrderCommits([]core.PolicyCandidate{
		candidate(0, 100, core.PolicyServer{ID: "server-2"}, core.PolicyServer{ID: "server-1"}),
		candidate(1, 100, core.PolicyServer{ID: "server-2"}),
	})
	if perm[0] != 1 {
		t.Fatalf("order = %v, want the all-healthy offer first (weakest-link scoring)", perm)
	}
}

// With no evidence the bandit falls back to gentle cost pressure (cheapest
// first) and, with equal costs, keeps the classical order — which the
// manager treats as "no reorder".
func TestBanditNoEvidenceDefaults(t *testing.T) {
	b := policy.NewBandit(policy.Config{})
	sv := core.PolicyServer{ID: "server-1"}
	perm := b.OrderCommits([]core.PolicyCandidate{
		candidate(0, 200, sv), candidate(1, 100, sv),
	})
	if perm[0] != 1 {
		t.Fatalf("order = %v, want the cheaper offer first", perm)
	}
	perm = b.OrderCommits([]core.PolicyCandidate{
		candidate(0, 100, sv), candidate(1, 100, sv),
	})
	for i, p := range perm {
		if p != i {
			t.Fatalf("equal candidates reordered: %v", perm)
		}
	}
	// Live features still matter with no commit history: a server drowning
	// in consecutive failures is tried last.
	perm = b.OrderCommits([]core.PolicyCandidate{
		candidate(0, 100, core.PolicyServer{ID: "server-1", ConsecutiveFailures: 5}),
		candidate(1, 100, core.PolicyServer{ID: "server-2"}),
	})
	if perm[0] != 1 {
		t.Fatalf("order = %v, want the unfailing server first", perm)
	}
}

// Share batching: with a hook installed the bandit publishes additive
// deltas every ShareEvery observations and drains them, so successive
// batches never re-ship old evidence. Merging the batches into a fresh
// bandit must reproduce the teacher's preference.
func TestBanditShareAndMerge(t *testing.T) {
	teacher := policy.NewBandit(policy.Config{ShareEvery: 4})
	var batches [][]core.PolicySummary
	teacher.SetShareHook(func(s []core.PolicySummary) { batches = append(batches, s) })
	for i := 0; i < 8; i++ {
		teacher.ObserveCommit(core.CommitObservation{Server: "server-1", Cause: core.CauseServerDown})
	}
	if len(batches) != 2 {
		t.Fatalf("8 observations at ShareEvery=4 published %d batches, want 2", len(batches))
	}
	var total float64
	for _, batch := range batches {
		for _, s := range batch {
			if s.Server != "server-1" {
				t.Errorf("unexpected summary %+v", s)
			}
			total += s.Successes + s.Failures
		}
	}
	if total != 8 {
		t.Errorf("batches carry %.0f observations, want 8 (no re-shipping, no loss)", total)
	}
	student := policy.NewBandit(policy.Config{})
	for _, batch := range batches {
		student.MergePolicy(batch)
	}
	perm := student.OrderCommits([]core.PolicyCandidate{
		candidate(0, 100, core.PolicyServer{ID: "server-1"}),
		candidate(1, 100, core.PolicyServer{ID: "server-2"}),
	})
	if perm[0] != 1 {
		t.Fatalf("student order = %v, want merged evidence to demote server-1", perm)
	}
}

// Forks must be deterministic: the same shard index yields the same seed,
// so two forks given identical observations order identically even with
// Thompson sampling drawing noise.
func TestBanditForkDeterministic(t *testing.T) {
	root := policy.NewBandit(policy.Config{Thompson: true})
	a := root.ForkPolicy(3).(*policy.Bandit)
	b := root.ForkPolicy(3).(*policy.Bandit)
	ties := []core.PolicyCandidate{
		candidate(0, 100, core.PolicyServer{ID: "server-1"}),
		candidate(1, 100, core.PolicyServer{ID: "server-2"}),
		candidate(2, 100, core.PolicyServer{ID: "server-3"}),
	}
	for round := 0; round < 20; round++ {
		pa, pb := a.OrderCommits(ties), b.OrderCommits(ties)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("round %d: forks diverged: %v vs %v", round, pa, pb)
			}
		}
	}
	if other := root.ForkPolicy(4).(*policy.Bandit); other == a {
		t.Fatal("distinct shards share a fork")
	}
}

// reversing flips every tie run: the worst possible fixed answer, which
// makes it the sharpest probe of order-independent bookkeeping.
type reversing struct{}

func (reversing) Name() string { return "reversing" }
func (reversing) OrderCommits(ties []core.PolicyCandidate) []int {
	perm := make([]int, len(ties))
	for i := range perm {
		perm[i] = len(perm) - 1 - i
	}
	return perm
}
func (reversing) OrderTargets(ties []core.PolicyCandidate) []int {
	return reversing{}.OrderCommits(ties)
}

// TestPolicyReorderedFailover drives the same crashed-server negotiation
// under the classical order and under a reversed order. Both must converge
// on a healthy replica with the same user-visible offer, and the dead-set
// bookkeeping must count the crashed server exactly once however many
// reordered offers touch it.
func TestPolicyReorderedFailover(t *testing.T) {
	run := func(p core.SelectionPolicy) (core.Result, core.Stats, *testbed.Bed) {
		opts := core.DefaultOptions()
		opts.Health = core.HealthPolicy{FailureThreshold: 0}
		opts.Selection = p
		inj := faults.New(11)
		bed := testbed.MustNew(testbed.Spec{Clients: 2, Servers: 3, Options: &opts, Faults: inj})
		if err := bed.Registry.Add(replicatedArticle("news-1", "server-1", "server-2", "server-3")); err != nil {
			t.Fatal(err)
		}
		// The reversed order leads with server-3; crash it so the policy's
		// first choice fails and the run must fail over across the tie run.
		inj.Crash("server-3")
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", tvProfile())
		if err != nil {
			t.Fatal(err)
		}
		return res, bed.Manager.Stats(), bed
	}

	classical, classicalStats, cbed := run(nil)
	reversed, reversedStats, rbed := run(reversing{})
	if !classical.Status.Reserved() || !reversed.Status.Reserved() {
		t.Fatalf("failover did not reserve: classical %v, reversed %v", classical.Status, reversed.Status)
	}
	// The policy may only permute equals, so the user-visible offer — QoS
	// and price — must be identical whichever server won.
	cOffer, _ := json.Marshal(classical.Offer)
	rOffer, _ := json.Marshal(reversed.Offer)
	if string(cOffer) != string(rOffer) {
		t.Errorf("user offers diverged under reordering:\nclassical: %s\nreversed:  %s", cOffer, rOffer)
	}
	if classical.Session.Cost() != reversed.Session.Cost() {
		t.Errorf("session cost diverged: %v vs %v", classical.Session.Cost(), reversed.Session.Cost())
	}
	// Reversed order leads with the crashed server: exactly one down is
	// counted for it, no matter how many replicated offers it appears in.
	if reversedStats.CommitServerDown != 1 {
		t.Errorf("reversed order counted %d server-down failures, want exactly 1 (idempotent dead set)", reversedStats.CommitServerDown)
	}
	// Classical order never touches the crashed server (server-1 is first
	// and healthy): zero failures.
	if classicalStats.CommitServerDown != 0 {
		t.Errorf("classical order counted %d server-down failures, want 0", classicalStats.CommitServerDown)
	}
	cbed.Manager.Reject(classical.Session.ID)
	rbed.Manager.Reject(reversed.Session.ID)
	for _, bed := range []*testbed.Bed{cbed, rbed} {
		if err := bed.Ledger.CheckEmpty(); err != nil {
			t.Error(err)
		}
	}
}

// signature flattens one operation's outcome for byte-identity comparison.
func signature(res core.Result, err error) string {
	if err != nil {
		return "err:" + err.Error()
	}
	var id core.SessionID
	var c cost.Money
	var ranked, current []byte
	if res.Session != nil {
		id = res.Session.ID
		c = res.Session.Cost()
		ranked, _ = json.Marshal(res.Session.Ranked)
		current, _ = json.Marshal(res.Session.CurrentOffer())
	}
	offerJSON, _ := json.Marshal(res.Offer)
	return fmt.Sprintf("%v|%s|%d|%d|%s|%s|%s", res.Status, res.Reason, id, c, offerJSON, current, ranked)
}

// TestPolicyOffEquivalence drives the same randomized interleaving — full
// lifecycle plus fault weather — against a bed with no policy configured
// and a bed with the static policy installed. Installing the policy layer
// in its declining state must be byte-identical to its absence: same
// statuses, reasons, session ids, offers, rankings, costs, errors, final
// counters; and both ledgers must balance to zero.
func TestPolicyOffEquivalence(t *testing.T) {
	static := policy.NewStatic()
	type pbed struct {
		bed *testbed.Bed
		inj *faults.Injector
	}
	mk := func(p core.SelectionPolicy, a core.AdaptationPolicy) pbed {
		opts := core.DefaultOptions()
		opts.Selection = p
		opts.Adaptation = a
		inj := faults.New(1996)
		bed := testbed.MustNew(testbed.Spec{Clients: 2, Servers: 3, Options: &opts, Faults: inj})
		if err := bed.Registry.Add(replicatedArticle("news-1", "server-1", "server-2", "server-3")); err != nil {
			t.Fatal(err)
		}
		return pbed{bed, inj}
	}
	beds := []pbed{mk(nil, nil), mk(static, static)}

	rng := sim.NewRand(42)
	live := [2][]core.SessionID{}
	pickIdx := -1
	for step := 0; step < 160; step++ {
		op := rng.Intn(12)
		if len(live[0]) > 0 {
			pickIdx = rng.Intn(len(live[0]))
		}
		// Draw every random choice ONCE per step, outside the per-bed loop,
		// so both beds see the same interleaving.
		client := 1 + rng.Intn(2)
		var snaps [2]string
		for i, pb := range beds {
			switch op {
			case 0, 1, 2, 3:
				res, err := pb.bed.Manager.NegotiateContext(context.Background(), pb.bed.Client(client), "news-1", tvProfile())
				snaps[i] = "negotiate " + signature(res, err)
				if err == nil && res.Session != nil {
					live[i] = append(live[i], res.Session.ID)
				}
			case 4:
				if pickIdx >= 0 && pickIdx < len(live[i]) {
					id := live[i][pickIdx]
					snaps[i] = fmt.Sprintf("confirm %d %v", id, pb.bed.Manager.Confirm(id))
				}
			case 5:
				if pickIdx >= 0 && pickIdx < len(live[i]) {
					id := live[i][pickIdx]
					snaps[i] = fmt.Sprintf("reject %d %v", id, pb.bed.Manager.Reject(id))
				}
			case 6:
				if pickIdx >= 0 && pickIdx < len(live[i]) {
					id := live[i][pickIdx]
					snaps[i] = fmt.Sprintf("expire %d %v", id, pb.bed.Manager.Expire(id))
				}
			case 7:
				if pickIdx >= 0 && pickIdx < len(live[i]) {
					id := live[i][pickIdx]
					tr, err := pb.bed.Manager.Adapt(id)
					snaps[i] = fmt.Sprintf("adapt %d %d %v", id, tr.Session, err)
				}
			case 8:
				if pickIdx >= 0 && pickIdx < len(live[i]) {
					id := live[i][pickIdx]
					res, err := pb.bed.Manager.RenegotiateContext(context.Background(), id, tvProfile())
					snaps[i] = fmt.Sprintf("renegotiate %d %s", id, signature(res, err))
				}
			case 9:
				if pickIdx >= 0 && pickIdx < len(live[i]) {
					id := live[i][pickIdx]
					snaps[i] = fmt.Sprintf("abort %d %v", id, pb.bed.Manager.Abort(id))
				}
			case 10:
				// Fault weather: crash or restart a server — the same one on
				// both beds, so the weather is identical.
				sid := media.ServerID(fmt.Sprintf("server-%d", 1+step%3))
				if step%2 == 0 {
					pb.inj.Crash(sid)
				} else {
					pb.inj.Restart(sid)
				}
				snaps[i] = "weather " + string(sid)
			case 11:
				p := float64(step%3) * 0.3
				pb.inj.SetReserveFailure(p)
				snaps[i] = fmt.Sprintf("weather reserve %.1f", p)
			}
		}
		if snaps[0] != snaps[1] {
			t.Fatalf("step %d: policy-absent and policy-disabled outcomes differ:\nabsent:   %s\ndisabled: %s",
				step, snaps[0], snaps[1])
		}
	}
	// Heal, wind down, and compare the final counters.
	var finals [2]string
	for i, pb := range beds {
		pb.inj.SetReserveFailure(0)
		for _, sid := range pb.bed.ServerIDs() {
			pb.inj.Restart(sid)
		}
		for _, id := range live[i] {
			pb.bed.Manager.Abort(id)
		}
		finals[i] = fmt.Sprintf("%+v", pb.bed.Manager.Stats())
		if err := pb.bed.Ledger.CheckEmpty(); err != nil {
			t.Errorf("bed %d: %v", i, err)
		}
	}
	if finals[0] != finals[1] {
		t.Fatalf("final stats differ:\nabsent:   %s\ndisabled: %s", finals[0], finals[1])
	}
}

// TestBanditFleetPropagation is the end-to-end version of the shard
// package's stub test: a real bandit on a 2-shard fleet, with one shard's
// learned aversion to a flaky server reaching the sibling over the bus.
func TestBanditFleetPropagation(t *testing.T) {
	b := policy.NewBandit(policy.Config{ShareEvery: 1})
	opts := core.DefaultOptions()
	opts.Health = core.HealthPolicy{FailureThreshold: 0}
	opts.Selection = b
	inj := faults.New(3)
	bed := testbed.MustNew(testbed.Spec{Shards: 2, Clients: 2, Servers: 3, Options: &opts, Faults: inj})
	if err := bed.Registry.Add(replicatedArticle("news-1", "server-1", "server-2", "server-3")); err != nil {
		t.Fatal(err)
	}
	if s, ok := inj.Server("server-1"); ok {
		s.SetReserveFailure(1.0)
	}
	for i := 0; i < 12; i++ {
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", tvProfile())
		if err != nil {
			t.Fatal(err)
		}
		if res.Session != nil {
			bed.Manager.Reject(res.Session.ID)
		}
	}
	bed.Fleet.Sync()
	// Every shard's bandit — not just the one that suffered the failures —
	// must now hold evidence against server-1. The root bandit is never
	// consulted on a fleet; its forks are, and we can only observe them
	// through behaviour: negotiations stop failing once both shards have
	// learned, so the last few rounds must commit without burning attempts.
	before := bed.Manager.Stats()
	for i := 0; i < 8; i++ {
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(2), "news-1", tvProfile())
		if err != nil {
			t.Fatal(err)
		}
		if res.Session != nil {
			bed.Manager.Reject(res.Session.ID)
		}
	}
	after := bed.Manager.Stats()
	if d := after.CommitCapacity - before.CommitCapacity; d != 0 {
		t.Errorf("trained fleet still burned %d failed reserves; cross-shard learning did not take", d)
	}
	if err := bed.Ledger.CheckEmpty(); err != nil {
		t.Error(err)
	}
}
