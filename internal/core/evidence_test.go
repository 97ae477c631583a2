package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/registry"
	"qosneg/internal/sim"
	"qosneg/internal/transport"
)

// evidenceWorld is a manager over a star of servers, each with room for
// two streams, with the daemon's breaker on a frozen simulated clock, and
// an offer with one continuous stream on each server, in server order.
type evidenceWorld struct {
	man     *Manager
	eng     *sim.Engine
	net     *network.Network
	servers []*cmfs.Server
	led     *ledger.Ledger
	mach    client.Machine
	doc     media.Document
	u       profile.UserProfile
	offer   offer.Ranked
}

// newEvidenceWorld builds the world with four servers and a four-choice
// offer, or with more.
func newEvidenceWorld(t *testing.T, servers ...int) *evidenceWorld {
	t.Helper()
	n := 4
	if len(servers) > 0 {
		n = servers[0]
	}
	var ids []media.ServerID
	spec := network.StarSpec{Clients: []network.NodeID{"client-1"}}
	for i := range n {
		ids = append(ids, media.ServerID(fmt.Sprintf("server-%d", i+1)))
		spec.Servers = append(spec.Servers, network.NodeID(ids[i]))
	}
	net, err := network.BuildStar(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &evidenceWorld{eng: sim.NewEngine(), net: net, led: ledger.New(), mach: client.Workstation("client-1", "client-1"), u: tvProfile()}
	net.SetLedger(w.led)
	w.man = NewManager(registry.New(), transport.New(net, 3), cost.DefaultPricing(), DefaultOptions())
	w.man.clk = clock.Sim(w.eng)
	w.man.opts.Health = DefaultHealthPolicy()
	w.doc = media.Document{ID: "four-streams"}
	tv := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}
	cd := qos.AudioQoS{Grade: qos.CDQuality, Language: qos.English}
	variants := []media.Variant{
		media.VideoVariant("video-v1", ids[0], media.MPEG1, tv, time.Minute),
		media.AudioVariant("audio-v1", ids[1], media.MPEG1Audio, cd, time.Minute),
		media.AudioVariant("commentary-v1", ids[2], media.MPEG1Audio, cd, time.Minute),
		media.AudioVariant("music-v1", ids[3], media.MPEG1Audio, cd, time.Minute),
	}
	for i := 4; i < n; i++ {
		variants = append(variants, media.AudioVariant(media.VariantID(fmt.Sprintf("track%d-v1", i)), ids[i], media.MPEG1Audio, cd, time.Minute))
	}
	cfg := cmfs.DefaultConfig()
	cfg.MaxStreams = 2
	so := &offer.SystemOffer{Document: w.doc.ID}
	for i, id := range ids {
		srv, err := cmfs.NewServer(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetLedger(w.led)
		w.man.AddServer(srv, network.NodeID(id))
		w.servers = append(w.servers, srv)
		mono := media.MonomediaID(variants[i].ID)
		w.doc.Monomedia = append(w.doc.Monomedia, media.Monomedia{ID: mono, Variants: variants[i : i+1]})
		so.Choices = append(so.Choices, offer.Choice{Monomedia: mono, Variant: &variants[i]})
	}
	w.offer = offer.Ranked{SystemOffer: so}
	return w
}

// withChoice returns a copy of r whose choice i is v.
func withChoice(r offer.Ranked, i int, v media.Variant) offer.Ranked {
	so := *r.SystemOffer
	so.Choices = append([]offer.Choice(nil), so.Choices...)
	so.Choices[i].Variant = &v
	r.SystemOffer = &so
	return r
}

// evidence is what one attempt should post to the server table: a success
// for each of the first successes choices, then the failure fail when its
// cause is set.
type evidence struct {
	successes int
	fail      commitFailure
}

// cloneTable copies every row of a server table.
func cloneTable(t *ServerTable) *ServerTable {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := newServerTable()
	for id, rec := range t.servers {
		row := *rec
		c.servers[id] = &row
	}
	return c
}

// feed posts one attempt's evidence for offer r to ref one call at a time,
// each success stamped with the generation the server's row has when the
// attempt begins.
func (w *evidenceWorld) feed(ref *ServerTable, r offer.Ranked, ev evidence) {
	g := w.u.Desired.Cost.Guarantee
	gens := make([]uint64, ev.successes)
	for i := range gens {
		_, gens[i], _ = ref.lookup(r.Choices[i].Variant.Server, w.man.clk)
	}
	for i, gen := range gens {
		ref.recordSuccess(r.Choices[i].Variant.Server, g, gen, w.man.clk)
	}
	if ev.fail.cause != CauseNone {
		ref.recordFailure(ev.fail, g, w.man.opts.Health, w.man.clk)
	}
}

// sameRows reports the first row where two tables differ: decayed
// outcomes, generation, consecutive count, per-cause counts and
// quarantine deadline.
func sameRows(got, want *ServerTable) error {
	for id, rec := range want.servers {
		g, ok := got.servers[id]
		if !ok {
			return fmt.Errorf("%s: no row, want %+v", id, rec.serverHealth)
		}
		if g.serverHealth != rec.serverHealth {
			return fmt.Errorf("%s:\n\tgot  %+v\n\twant %+v", id, g.serverHealth, rec.serverHealth)
		}
	}
	if len(got.servers) != len(want.servers) {
		return fmt.Errorf("%d rows, want %d", len(got.servers), len(want.servers))
	}
	return nil
}

// TestPlanEvidenceMatchesOneAtATime holds the evidence step 5 posts, some
// of it under one lock of the server table, to the same evidence posted
// one recordSuccess or recordFailure call at a time: a four-choice offer
// refused at each position by each refusal step 5 makes, committed, refused
// by a carried refusal, a six-choice offer committed and refused, and an
// offer refused until the breaker trips and then, past the cooldown,
// committed on the healed server. After every pass the
// table's rows equal those of a copy taken before it and fed the pass's
// evidence call by call.
func TestPlanEvidenceMatchesOneAtATime(t *testing.T) {
	ctx := context.Background()
	// pass runs step 5 over offers and compares the table with the copy
	// fed want, one entry per attempted offer.
	pass := func(t *testing.T, w *evidenceWorld, doc media.Document, u profile.UserProfile, offers []offer.Ranked, want []evidence) commitResult {
		t.Helper()
		ref := cloneTable(w.man.servers)
		held := w.led.Open()
		c, err := w.man.commitFirst(ctx, &w.mach, &doc, termsOf(&u), presorted(offers), nil, nil, nil, "negotiate")
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range want {
			w.feed(ref, offers[i], ev)
		}
		if err := sameRows(w.man.servers, ref); err != nil {
			t.Errorf("server rows differ from the evidence posted call by call: %v", err)
		}
		if c.ok {
			w.man.release(c.commit)
		}
		if open := w.led.Open(); open != held {
			t.Errorf("the pass left %d resources held", open-held)
		}
		return c
	}
	capacity := func(kind refusal, server media.ServerID) commitFailure {
		return commitFailure{cause: CauseCapacity, kind: kind, server: server}
	}
	type refusalSetup struct {
		name string
		// setup makes the offer's choice at pos refuse and returns the
		// offer to attempt and the failure it should post, if any.
		setup func(t *testing.T, w *evidenceWorld, pos int) (offer.Ranked, commitFailure)
	}
	refusals := []refusalSetup{
		{"quarantined", func(t *testing.T, w *evidenceWorld, pos int) (offer.Ranked, commitFailure) {
			sid := w.offer.Choices[pos].Variant.Server
			w.man.recordCommitFailure(commitFailure{cause: CauseServerDown, kind: refusedReserve, server: sid, err: ErrServerDown}, w.u.Desired.Cost.Guarantee)
			return w.offer, commitFailure{}
		}},
		{"unregistered", func(t *testing.T, w *evidenceWorld, pos int) (offer.Ranked, commitFailure) {
			v := *w.offer.Choices[pos].Variant
			v.Server = "server-9"
			return withChoice(w.offer, pos, v), commitFailure{cause: CauseServerDown, kind: refusedUnregistered, server: "server-9"}
		}},
		{"stream cap", func(t *testing.T, w *evidenceWorld, pos int) (offer.Ranked, commitFailure) {
			q := streamQoS(w.offer.Choices[pos].Variant)
			for range 2 {
				if _, err := w.servers[pos].Reserve(q); err != nil {
					t.Fatal(err)
				}
			}
			return w.offer, capacity(refusedStreamCap, w.servers[pos].ID())
		}},
		{"round budget", func(t *testing.T, w *evidenceWorld, pos int) (offer.Ranked, commitFailure) {
			if err := w.servers[pos].SetDegradation(0.99); err != nil {
				t.Fatal(err)
			}
			return w.offer, capacity(refusedRoundBudget, w.servers[pos].ID())
		}},
		{"connect", func(t *testing.T, w *evidenceWorld, pos int) (offer.Ranked, commitFailure) {
			sid := w.servers[pos].ID()
			if err := w.net.SetLinkDegradation(network.LinkID(fmt.Sprintf("backbone-%s:rev", sid)), 0.9999); err != nil {
				t.Fatal(err)
			}
			return w.offer, capacity(refusedConnect, sid)
		}},
		{"path held", func(t *testing.T, w *evidenceWorld, pos int) (offer.Ranked, commitFailure) {
			// Another caller holds all but a sliver of the server's
			// backbone link: the plan finds the path held, and the
			// attempt walks on as reservations until the transport
			// refuses the connection.
			sid := w.servers[pos].ID()
			link := network.LinkID(fmt.Sprintf("backbone-%s:rev", sid))
			spare, _ := w.net.Available(link)
			if _, err := w.net.Reserve(network.Path{link}, qos.NetworkQoS{AvgBitRate: spare - qos.KBitPerSecond}); err != nil {
				t.Fatal(err)
			}
			return w.offer, capacity(refusedConnect, sid)
		}},
	}
	for _, rs := range refusals {
		for pos := range 4 {
			t.Run(fmt.Sprintf("%s at %d", rs.name, pos), func(t *testing.T) {
				w := newEvidenceWorld(t)
				r, fail := rs.setup(t, w, pos)
				if c := pass(t, w, w.doc, w.u, []offer.Ranked{r}, []evidence{{pos, fail}}); c.ok {
					t.Fatal("the offer committed; the case does not refuse it")
				}
			})
		}
	}
	// The refused choice's server also serves the first choice, so the
	// success the plan posts for it and the refusal land on one row, where
	// their order shows.
	for pos := 1; pos < 4; pos++ {
		t.Run(fmt.Sprintf("stream cap on the first choice's server at %d", pos), func(t *testing.T) {
			w := newEvidenceWorld(t)
			v := *w.offer.Choices[pos].Variant
			v.Server = w.servers[0].ID()
			r := withChoice(w.offer, pos, v)
			if _, err := w.servers[0].Reserve(streamQoS(&v)); err != nil {
				t.Fatal(err)
			}
			if c := pass(t, w, w.doc, w.u, []offer.Ranked{r}, []evidence{{pos, capacity(refusedStreamCap, v.Server)}}); c.ok {
				t.Fatal("the offer committed; the case does not refuse it")
			}
		})
	}
	// A bound checked on the planned routes refuses after every choice
	// planned clean, and names no server.
	t.Run("start delay", func(t *testing.T) {
		w := newEvidenceWorld(t)
		u := w.u
		u.Desired.Time.MaxStartDelay = time.Millisecond
		if c := pass(t, w, w.doc, u, []offer.Ranked{w.offer}, []evidence{{4, commitFailure{}}}); c.ok || c.constraints != 1 {
			t.Fatalf("%+v, want one constraint refusal", c)
		}
	})
	t.Run("sync", func(t *testing.T) {
		w := newEvidenceWorld(t)
		doc := w.doc
		doc.Temporal = []media.TemporalConstraint{{A: "video-v1", B: "audio-v1", Relation: media.Parallel, Tolerance: time.Microsecond}}
		if c := pass(t, w, doc, w.u, []offer.Ranked{w.offer}, []evidence{{4, commitFailure{}}}); c.ok || c.constraints != 1 {
			t.Fatalf("%+v, want one constraint refusal", c)
		}
	})
	t.Run("commit", func(t *testing.T) {
		w := newEvidenceWorld(t)
		if c := pass(t, w, w.doc, w.u, []offer.Ranked{w.offer}, []evidence{{4, commitFailure{}}}); !c.ok {
			t.Fatalf("%+v, want a commit", c)
		}
	})
	// The second offer shares the first's choices up to and including the
	// refused one, so it carries the refusal instead of planning it again.
	for pos := range 3 {
		t.Run(fmt.Sprintf("carried at %d", pos), func(t *testing.T) {
			w := newEvidenceWorld(t)
			if err := w.servers[pos].SetDegradation(0.99); err != nil {
				t.Fatal(err)
			}
			v := *w.offer.Choices[3].Variant
			v.ID = "music-v2"
			second := withChoice(w.offer, 3, v)
			fail := capacity(refusedRoundBudget, w.servers[pos].ID())
			if c := pass(t, w, w.doc, w.u, []offer.Ranked{w.offer, second}, []evidence{{pos, fail}, {pos, fail}}); c.ok || c.capacities != 2 {
				t.Fatalf("%+v, want two capacity refusals", c)
			}
		})
	}
	// An offer wider than a plan's fixed arrays plans on the heap, twice
	// in a row on one world so the second pass reuses what the first left.
	t.Run("wide", func(t *testing.T) {
		w := newEvidenceWorld(t, 6)
		for range 2 {
			if c := pass(t, w, w.doc, w.u, []offer.Ranked{w.offer}, []evidence{{6, commitFailure{}}}); !c.ok {
				t.Fatalf("%+v, want a commit", c)
			}
		}
		if err := w.servers[5].SetDegradation(0.99); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if c := pass(t, w, w.doc, w.u, []offer.Ranked{w.offer}, []evidence{{5, capacity(refusedRoundBudget, w.servers[5].ID())}}); c.ok {
				t.Fatal("the offer committed on a degraded server")
			}
		}
	})
	t.Run("trip then restore", func(t *testing.T) {
		w := newEvidenceWorld(t)
		threshold := w.man.opts.Health.FailureThreshold
		if err := w.servers[2].SetDegradation(0.99); err != nil {
			t.Fatal(err)
		}
		fail := capacity(refusedRoundBudget, w.servers[2].ID())
		for range threshold {
			pass(t, w, w.doc, w.u, []offer.Ranked{w.offer}, []evidence{{2, fail}})
		}
		if _, ok := w.man.Quarantined("server-3"); !ok {
			t.Fatal("the breaker did not trip")
		}
		pass(t, w, w.doc, w.u, []offer.Ranked{w.offer}, []evidence{{2, commitFailure{}}})
		if err := w.servers[2].SetDegradation(0); err != nil {
			t.Fatal(err)
		}
		w.eng.Run(w.eng.Now() + w.man.opts.Health.cooldown() + time.Second)
		if c := pass(t, w, w.doc, w.u, []offer.Ranked{w.offer}, []evidence{{4, commitFailure{}}}); !c.ok {
			t.Fatalf("%+v, want a commit past the cooldown", c)
		}
		if row := serverLoad(t, w.man, "server-3"); row.Quarantined || row.ConsecutiveFailures != 0 || row.Quarantines != 1 {
			t.Errorf("server-3 after the commit: %+v, want healed with one quarantine on record", row)
		}
	})
}
