package core

import (
	"context"
	"testing"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/cost"
	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/registry"
	"qosneg/internal/transport"
)

// congestedStep5 is a manager over a star of three servers and a
// three-choice offer with one continuous stream on each, in server order,
// with a ledger counting the resources they post.
type congestedStep5 struct {
	man     *Manager
	net     *network.Network
	servers []*cmfs.Server
	calls   *step5Calls
	led     *ledger.Ledger
	mach    client.Machine
	doc     media.Document
	u       profile.UserProfile
	offers  []offer.Ranked
}

// presorted hands step 5 a list in the order the test built it.
func presorted(offers []offer.Ranked) *offer.Classified {
	c := offer.Presorted(offers)
	return &c
}

// step5Calls counts the substrate calls step 5 makes. beforeReserve, when
// set, runs at the start of every Reserve.
type step5Calls struct {
	step5Counts
	beforeReserve func()
}

type step5Counts struct{ reserves, releases, connects, closes int }

type countingServer struct {
	MediaServer
	n *step5Calls
}

func (s countingServer) Reserve(q qos.NetworkQoS) (cmfs.Reservation, error) {
	if s.n.beforeReserve != nil {
		s.n.beforeReserve()
	}
	s.n.reserves++
	return s.MediaServer.Reserve(q)
}

func (s countingServer) Release(id cmfs.ReservationID) error {
	s.n.releases++
	return s.MediaServer.Release(id)
}

type countingTransport struct {
	Transport
	n *step5Calls
}

func (t countingTransport) Connect(src, dst network.NodeID, q qos.NetworkQoS) (transport.Connection, error) {
	t.n.connects++
	return t.Transport.Connect(src, dst, q)
}

func (t countingTransport) Close(c transport.Connection) error {
	t.n.closes++
	return t.Transport.Close(c)
}

// newCongestedStep5 builds the world; with count set, the servers and the
// transport count the calls step 5 makes on them.
func newCongestedStep5(tb testing.TB, count bool) *congestedStep5 {
	tb.Helper()
	ids := []media.ServerID{"server-1", "server-2", "server-3"}
	spec := network.StarSpec{Clients: []network.NodeID{"client-1"}}
	for _, id := range ids {
		spec.Servers = append(spec.Servers, network.NodeID(id))
	}
	net, err := network.BuildStar(spec)
	if err != nil {
		tb.Fatal(err)
	}
	led := ledger.New()
	net.SetLedger(led)
	ts := transport.New(net, 3)
	calls := &step5Calls{}
	var tr Transport = ts
	if count {
		tr = countingTransport{ts, calls}
	}
	man := NewManager(registry.New(), tr, cost.DefaultPricing(), DefaultOptions())
	s := &congestedStep5{man: man, net: net, calls: calls, led: led, mach: client.Workstation("client-1", "client-1"), u: tvProfile()}
	s.doc = media.Document{ID: "three-streams"}
	tv := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}
	cd := qos.AudioQoS{Grade: qos.CDQuality, Language: qos.English}
	variants := []media.Variant{
		media.VideoVariant("video-v1", ids[0], media.MPEG1, tv, time.Minute),
		media.AudioVariant("audio-v1", ids[1], media.MPEG1Audio, cd, time.Minute),
		media.AudioVariant("commentary-v1", ids[2], media.MPEG1Audio, cd, time.Minute),
	}
	so := &offer.SystemOffer{Document: s.doc.ID}
	for i, id := range ids {
		srv, err := cmfs.NewServer(id, cmfs.DefaultConfig())
		if err != nil {
			tb.Fatal(err)
		}
		srv.SetLedger(led)
		var ms MediaServer = srv
		if count {
			ms = countingServer{srv, calls}
		}
		man.AddServer(ms, network.NodeID(id))
		s.servers = append(s.servers, srv)
		mono := media.MonomediaID(variants[i].ID)
		s.doc.Monomedia = append(s.doc.Monomedia, media.Monomedia{ID: mono, Variants: variants[i : i+1]})
		so.Choices = append(so.Choices, offer.Choice{Monomedia: mono, Variant: &variants[i]})
	}
	s.offers = []offer.Ranked{{SystemOffer: so}}
	return s
}

// BenchmarkStep5Congested times step 5 over one three-choice offer: refused
// at its last server, whose disk is degraded below one stream, and committed
// then released on healthy servers.
func BenchmarkStep5Congested(b *testing.B) {
	ctx := context.Background()
	b.Run("refused-at-last", func(b *testing.B) {
		s := newCongestedStep5(b, false)
		if err := s.servers[2].SetDegradation(0.99); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c, err := s.man.commitFirst(ctx, &s.mach, &s.doc, &s.u, presorted(s.offers), nil, nil, nil, "negotiate"); err != nil || c.capacities != 1 {
				b.Fatalf("attempt: %+v, %v; want a capacity refusal", c, err)
			}
		}
	})
	b.Run("commit-release", func(b *testing.B) {
		s := newCongestedStep5(b, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := s.man.commitFirst(ctx, &s.mach, &s.doc, &s.u, presorted(s.offers), nil, nil, nil, "negotiate")
			if err != nil || !c.ok {
				b.Fatalf("attempt: %+v, %v; want a commit", c, err)
			}
			s.man.release(c.commit)
		}
	})
}

// TestNoRollbackWithoutARace counts what step 5 asks of the substrate. An
// offer its plan refuses makes no Reserve, Connect, Release or Close call
// and posts nothing to the ledger; a committed offer makes one Reserve and
// one Connect per choice. A Reserve refused after a clean plan — here
// another caller takes the last server's capacity between the plan and the
// reservation — rolls back, and leaves the ledger empty; so does a path
// the plan finds held by another caller's reservation, which the transport
// refuses. A path too thin for the stream the plan refuses outright.
func TestNoRollbackWithoutARace(t *testing.T) {
	ctx := context.Background()
	s := newCongestedStep5(t, true)
	commit := func() commitResult {
		t.Helper()
		c, err := s.man.commitFirst(ctx, &s.mach, &s.doc, &s.u, presorted(s.offers), nil, nil, nil, "negotiate")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	if err := s.servers[2].SetDegradation(0.99); err != nil {
		t.Fatal(err)
	}
	acquires, releases := s.led.Counts()
	if c := commit(); c.ok || c.capacities != 1 {
		t.Fatalf("degraded last server: %+v, want one capacity refusal", c)
	}
	if got := s.calls.step5Counts; got != (step5Counts{}) {
		t.Errorf("plan-refused offer made substrate calls %+v, want none", got)
	}
	if a, r := s.led.Counts(); a != acquires || r != releases {
		t.Errorf("plan-refused offer posted %d acquires and %d releases, want none", a-acquires, r-releases)
	}

	if err := s.servers[2].SetDegradation(0); err != nil {
		t.Fatal(err)
	}
	c := commit()
	if !c.ok {
		t.Fatalf("healthy servers: %+v, want a commit", c)
	}
	n := len(s.offers[0].Choices)
	if got, want := s.calls.step5Counts, (step5Counts{reserves: n, connects: n}); got != want {
		t.Errorf("committed offer made %+v, want %+v", got, want)
	}
	s.man.release(c.commit)
	s.calls.step5Counts = step5Counts{}

	// Another caller fills the last server once the plan has passed.
	last := s.servers[2]
	var grabbed []cmfs.ReservationID
	s.calls.beforeReserve = func() {
		for grabbed == nil {
			for {
				r, err := last.Reserve(s.offers[0].Choices[2].Variant.NetworkQoS())
				if err != nil {
					break
				}
				grabbed = append(grabbed, r.ID)
			}
		}
	}
	if c := commit(); c.ok || c.capacities != 1 {
		t.Fatalf("raced offer: %+v, want one capacity refusal", c)
	}
	if got, want := s.calls.step5Counts, (step5Counts{reserves: n, connects: n - 1, releases: n - 1, closes: n - 1}); got != want {
		t.Errorf("raced offer made %+v, want %+v", got, want)
	}
	for _, id := range grabbed {
		if err := last.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.led.CheckEmpty(); err != nil {
		t.Errorf("after the rollback: %v", err)
	}

	// A path that cannot carry the stream is refused by the plan; one that
	// another caller's reservation holds is not refused on the snapshot:
	// the attempt reserves its way there and the transport refuses it.
	s.calls.step5Counts, s.calls.beforeReserve = step5Counts{}, nil
	backbone := network.LinkID("backbone-server-3:rev")
	if err := s.net.SetLinkDegradation(backbone, 0.99999); err != nil {
		t.Fatal(err)
	}
	if c := commit(); c.ok || c.capacities != 1 {
		t.Fatalf("degraded path: %+v, want one capacity refusal", c)
	}
	if got := s.calls.step5Counts; got != (step5Counts{}) {
		t.Errorf("degraded path made %+v, want no substrate call", got)
	}
	if err := s.net.SetLinkDegradation(backbone, 0); err != nil {
		t.Fatal(err)
	}
	spare, _ := s.net.Available(backbone)
	hold, err := s.net.Reserve(network.Path{backbone}, qos.NetworkQoS{AvgBitRate: spare - qos.MBitPerSecond/2})
	if err != nil {
		t.Fatal(err)
	}
	if c := commit(); c.ok || c.capacities != 1 {
		t.Fatalf("held path: %+v, want one capacity refusal", c)
	}
	if got, want := s.calls.step5Counts, (step5Counts{reserves: n, connects: n, releases: n, closes: n - 1}); got != want {
		t.Errorf("held path made %+v, want %+v", got, want)
	}
	if err := s.net.Release(hold.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.led.CheckEmpty(); err != nil {
		t.Errorf("after the held path's rollback: %v", err)
	}
}

// TestPlanRefusalAllocBound is step 5's allocation gate for a refusal the
// plan finds: refused at its last server after planning the two before it,
// an attempt allocates nothing. The server hands the refusal's figures back
// by value, and the attempt keeps them as numbers until a tracer renders
// them.
func TestPlanRefusalAllocBound(t *testing.T) {
	if raceDetectorOn {
		t.Skip("allocation counts are not kept under -race")
	}
	s := newCongestedStep5(t, true)
	if err := s.servers[2].SetDegradation(0.99); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(500, func() {
		if c, err := s.man.commitFirst(ctx, &s.mach, &s.doc, &s.u, presorted(s.offers), nil, nil, nil, "negotiate"); err != nil || c.capacities != 1 {
			t.Fatalf("attempt: %+v, %v; want a capacity refusal", c, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a plan-refused attempt allocated %.0f objects, want 0", allocs)
	}
}

// TestAdaptStep5AllocBound is step 5's allocation gate for an adaptation
// whose first alternate commits: passing over the offer the playing session
// leaves, it copies the new hold into the array of the commitment it
// withdrew, and allocates nothing (go1.24, linux/amd64). Copying the hold
// into a slice of its own, as negotiation does, allocates one object; the
// test measures that too.
func TestAdaptStep5AllocBound(t *testing.T) {
	if raceDetectorOn {
		t.Skip("allocation counts are not kept under -race")
	}
	b := defaultBed(t)
	u := tvProfile()
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
	if err != nil || res.Session == nil {
		t.Fatalf("negotiate: %v (%+v)", err, res.Status)
	}
	if err := b.man.Confirm(res.Session.ID); err != nil {
		t.Fatal(err)
	}
	ranked := presorted(res.Session.Ranked())
	leaving := res.Session.CurrentOffer()
	alt := ranked.At(0)
	if alt.Key() == leaving.Key() {
		alt = ranked.At(1)
	}
	ctx := context.Background()
	step5 := func(spare []heldChoice) []heldChoice {
		c, err := b.man.commitFirst(ctx, &b.mach, &b.doc, &u, ranked, leaving.SystemOffer, spare, nil, "adapt")
		// Compared without joining keys: a fresh classification's offers
		// carry none, and joining one allocates.
		if err != nil || !c.ok || offer.CompareKeys(c.chosen.SystemOffer, alt.SystemOffer) != 0 {
			t.Fatalf("adaptation: ok %v, %v; want the first alternate committed", c.ok, err)
		}
		b.man.release(c.commit)
		return c.commit.choices[:0]
	}
	spare := step5(nil)
	if allocs := testing.AllocsPerRun(500, func() { spare = step5(spare) }); allocs != 0 {
		t.Errorf("an adaptation's step 5 into the withdrawn array allocated %.0f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { step5(nil) }); allocs != 1 {
		t.Errorf("step 5 into an exact-size hold allocated %.0f objects, want 1", allocs)
	}
	if err := b.man.Complete(res.Session.ID); err != nil {
		t.Fatal(err)
	}
	if err := b.led.CheckEmpty(); err != nil {
		t.Errorf("after the adaptations: %v", err)
	}
}

// TestReroutedOfferRechecksBounds plants a change between the plan and the
// reservation that sends the video down a longer route: the plan checked
// the synchronization bound on the primary route, the reserved video takes
// the backup, whose jitter breaks the bound. Step 5 checks the bounds again
// on what it reserved and rolls the offer back.
func TestReroutedOfferRechecksBounds(t *testing.T) {
	net, err := network.BuildDualPath("client-1", "server-1", 20*qos.MBitPerSecond, 20*qos.MBitPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New()
	net.SetLedger(led)
	ts := transport.New(net, 3)
	calls := &step5Calls{}
	man := NewManager(registry.New(), countingTransport{ts, calls}, cost.DefaultPricing(), DefaultOptions())
	srv := cmfs.MustServer("server-1", cmfs.DefaultConfig())
	srv.SetLedger(led)
	man.AddServer(countingServer{srv, calls}, "server-1")
	doc := media.BuildNewsArticle(media.NewsArticleSpec{
		ID: "news-1", Servers: []media.ServerID{"server-1"},
		VideoQualities: []qos.VideoQoS{{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}},
		AudioQualities: []qos.AudioQoS{{Grade: qos.CDQuality, Language: qos.English}},
	})
	// The primary route's jitter is 4 ms a stream, the backup's 6 ms.
	doc.Temporal[0].Tolerance = 9 * time.Millisecond
	so := &offer.SystemOffer{Document: doc.ID}
	for _, mono := range doc.Monomedia {
		so.Choices = append(so.Choices, offer.Choice{Monomedia: mono.ID, Variant: &mono.Variants[0]})
	}
	offers := []offer.Ranked{{SystemOffer: so}}
	mach, u := client.Workstation("client-1", "client-1"), tvProfile()

	// The primary route is congested while the video connects and clear
	// again for the audio, whose 5 ms jitter target the backup misses.
	congested := 0.99
	calls.beforeReserve = func() {
		if err := net.SetLinkDegradation("primary:rev", congested); err != nil {
			t.Fatal(err)
		}
		congested = 0
	}
	c, err := man.commitFirst(context.Background(), &mach, &doc, &u, presorted(offers), nil, nil, nil, "negotiate")
	if err != nil {
		t.Fatal(err)
	}
	if c.ok || c.constraints != 1 {
		t.Fatalf("rerouted offer: %+v, want one constraint refusal", c)
	}
	if got, want := calls.step5Counts, (step5Counts{reserves: 2, connects: 2, releases: 2, closes: 2}); got != want {
		t.Errorf("rerouted offer made %+v, want %+v", got, want)
	}
	if err := led.CheckEmpty(); err != nil {
		t.Errorf("after the rollback: %v", err)
	}
}
