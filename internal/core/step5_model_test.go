package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
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

// refCommitFirst is step 5 as it was before it planned: commitFirst's walk
// (tracing left out) over refTryCommit, which reserves each choice and rolls
// everything back at the first refusal. It is the reference the planning
// step 5 is held to.
func (m *Manager) refCommitFirst(ctx context.Context, mach *client.Machine, doc *media.Document, u *profile.UserProfile, ranked []offer.Ranked, skipKey string, pol Policy) (commitResult, error) {
	var c commitResult
	var dead map[media.ServerID]bool
	groups := [2][]offer.Ranked{ranked, ranked}
	if pol != nil {
		groups[0], groups[1] = offer.Partition(ranked, u)
	}
	for pass, group := range groups {
		group, ranks := m.policyOrder(group, u.Desired.Cost.Guarantee, pol, "negotiate")
		for i, r := range group {
			if pol == nil && r.Acceptable(u) != (pass == 0) {
				continue
			}
			if skipKey != "" && r.Key() == skipKey {
				continue
			}
			if _, onDead := offerOnDead(r, dead); onDead {
				c.skipped++
				continue
			}
			cm, fail := m.refTryCommit(ctx, mach, doc, u, r)
			if fail.cause == CauseNone {
				c.ok, c.chosen, c.commit, c.rank = true, r, cm, i
				if ranks != nil {
					c.rank = ranks[i]
				}
				return c, nil
			}
			if err := ctx.Err(); err != nil {
				return c, err
			}
			switch fail.cause {
			case CauseServerDown:
				if !dead[fail.server] {
					if dead == nil {
						dead = make(map[media.ServerID]bool)
					}
					dead[fail.server] = true
					c.downs++
				}
				if rem, ok := m.Quarantined(fail.server); ok && rem > c.retryAfter {
					c.retryAfter = rem
				}
			case CauseCapacity:
				c.capacities++
			case CauseConstraint:
				c.constraints++
			}
		}
	}
	return c, nil
}

// refTryCommit is the reserve-and-rollback attempt.
func (m *Manager) refTryCommit(ctx context.Context, mach *client.Machine, doc *media.Document, u *profile.UserProfile, r offer.Ranked) (commitment, commitFailure) {
	var held []heldChoice
	// conns are the held choices' connections as Connect returned them,
	// for the synchronization check.
	var conns []transport.Connection
	g := u.Desired.Cost.Guarantee
	var startDelay time.Duration
	for i := range r.Choices {
		ch := &r.Choices[i]
		if err := ctx.Err(); err != nil {
			m.releaseHeld(held, len(held))
			return commitment{}, commitFailure{cause: CauseCanceled, kind: refusedCanceled, err: err}
		}
		sid := ch.Variant.Server
		entry, healthGen, left := m.servers.lookup(sid, m.clk)
		if left > 0 {
			m.releaseHeld(held, len(held))
			return commitment{}, commitFailure{cause: CauseServerDown, kind: refusedQuarantined, server: sid, left: left}
		}
		if entry.server == nil {
			return commitment{}, m.refuse(held, len(held), g,
				commitFailure{cause: CauseServerDown, kind: refusedUnregistered, server: sid})
		}
		netQoS := ch.Variant.NetworkQoS()
		res, err := entry.server.Reserve(netQoS)
		if err != nil {
			return commitment{}, m.refuse(held, len(held), g,
				commitFailure{cause: refusalCause(err), kind: refusedReserve, server: sid, err: err})
		}
		held = append(held, heldChoice{server: entry.server, res: res.ID})
		conn, err := m.transport.Connect(entry.node, mach.Node, netQoS)
		if err != nil {
			return commitment{}, m.refuse(held, len(held)-1, g,
				commitFailure{cause: refusalCause(err), kind: refusedConnect, server: sid, err: err, from: entry.node, to: mach.Node})
		}
		held[len(held)-1].conn = conn.Reservation.ID
		conns = append(conns, conn)
		m.recordServerSuccess(sid, g, healthGen)
		if d := conn.Metrics.Delay + entry.server.Config().RoundLength; d > startDelay {
			startDelay = d
		}
	}
	if max := u.Desired.Time.MaxStartDelay; max > 0 && startDelay > max {
		return commitment{}, m.refuse(held, len(held), g,
			commitFailure{cause: CauseConstraint, kind: refusedStartDelay, value: int64(startDelay), bound: int64(max)})
	}
	for _, tc := range doc.Temporal {
		if tc.Tolerance <= 0 {
			continue
		}
		ja, okA := refConnJitter(r, conns, tc.A)
		jb, okB := refConnJitter(r, conns, tc.B)
		if okA && okB && ja+jb > tc.Tolerance {
			return commitment{}, m.refuse(held, len(held), g,
				commitFailure{cause: CauseConstraint, kind: refusedSync, value: int64(ja + jb), bound: int64(tc.Tolerance), a: tc.A, b: tc.B})
		}
	}
	return commitment{choices: held}, commitFailure{}
}

func refConnJitter(r offer.Ranked, conns []transport.Connection, id media.MonomediaID) (jitter time.Duration, ok bool) {
	for i := range r.Choices {
		if ch := &r.Choices[i]; ch.Monomedia == id && !ch.Variant.NetworkQoS().Zero() {
			jitter, ok = conns[i].Metrics.Jitter, true
		}
	}
	return jitter, ok
}

// step5World is one side of the differential test: a manager over a star
// whose servers can crash, each side built identically from one seed.
type step5World struct {
	man     *Manager
	net     *network.Network
	led     *ledger.Ledger
	eng     *sim.Engine
	servers []*flakyServer
	raw     []*cmfs.Server
	grants  *step5Grants
	held    []commitment
}

// step5Grants is what a world's servers and transport granted and have not
// taken back, by id: a held choice keeps only the ids, and the test reads
// its rate, route and metrics here.
type step5Grants struct {
	rates map[serverGrant]qos.BitRate
	conns map[network.ReservationID]transport.Connection
}

// serverGrant is a CMFS reservation on its server.
type serverGrant struct {
	server media.ServerID
	id     cmfs.ReservationID
}

// grantingServer records the reservations its server grants in a world's
// grants.
type grantingServer struct {
	MediaServer
	g *step5Grants
}

func (s grantingServer) Reserve(q qos.NetworkQoS) (cmfs.Reservation, error) {
	r, err := s.MediaServer.Reserve(q)
	if err == nil {
		s.g.rates[serverGrant{s.ID(), r.ID}] = r.Rate
	}
	return r, err
}

func (s grantingServer) Release(id cmfs.ReservationID) error {
	delete(s.g.rates, serverGrant{s.ID(), id})
	return s.MediaServer.Release(id)
}

// grantingTransport records the connections its transport establishes in a
// world's grants.
type grantingTransport struct {
	Transport
	g *step5Grants
}

func (t grantingTransport) Connect(src, dst network.NodeID, q qos.NetworkQoS) (transport.Connection, error) {
	c, err := t.Transport.Connect(src, dst, q)
	if err == nil && c.Reservation.ID != 0 {
		t.g.conns[c.Reservation.ID] = c
	}
	return c, err
}

func (t grantingTransport) Close(c transport.Connection) error {
	delete(t.g.conns, c.Reservation.ID)
	return t.Transport.Close(c)
}

// step5Scenario seeds one random world and the operations run on both
// sides.
type step5Scenario struct{ Seed int64 }

func (step5Scenario) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(step5Scenario{Seed: r.Int63()})
}

func newStep5World(t *testing.T, seed int64) (*step5World, *media.Document, []client.Machine) {
	r := rand.New(rand.NewSource(seed))
	ids := []media.ServerID{"server-1", "server-2", "server-3"}[:2+r.Intn(2)]
	spec := network.StarSpec{
		Clients:          []network.NodeID{"client-1", "client-2"},
		AccessCapacity:   qos.BitRate(2+r.Intn(12)) * qos.MBitPerSecond,
		BackboneCapacity: qos.BitRate(4+r.Intn(30)) * qos.MBitPerSecond,
	}
	for _, id := range ids {
		spec.Servers = append(spec.Servers, network.NodeID(id))
	}
	net, err := network.BuildStar(spec)
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New()
	led.OnViolation(func(v string) { t.Errorf("ledger violation: %s", v) })
	net.SetLedger(led)
	ts := transport.New(net, 1+r.Intn(3))
	opts := DefaultOptions()
	opts.Health = HealthPolicy{FailureThreshold: r.Intn(4), Cooldown: time.Duration(5+r.Intn(30)) * time.Second}
	w := &step5World{led: led, net: net, eng: sim.NewEngine(), grants: &step5Grants{
		rates: make(map[serverGrant]qos.BitRate),
		conns: make(map[network.ReservationID]transport.Connection),
	}}
	w.man = NewManager(registry.New(), grantingTransport{ts, w.grants}, cost.DefaultPricing(), opts)
	w.man.clk = clock.Sim(w.eng)
	for _, id := range ids {
		cfg := cmfs.DefaultConfig()
		cfg.DiskRate = qos.BitRate(4+r.Intn(40)) * qos.MBitPerSecond
		cfg.MaxStreams = r.Intn(7)
		srv := cmfs.MustServer(id, cfg)
		srv.SetLedger(led)
		fs := &flakyServer{MediaServer: srv}
		w.man.AddServer(grantingServer{fs, w.grants}, network.NodeID(id))
		w.servers, w.raw = append(w.servers, fs), append(w.raw, srv)
	}
	videos := []qos.VideoQoS{
		{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
		{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution},
		{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution},
		{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution},
	}
	audios := []qos.AudioQoS{{Grade: qos.CDQuality, Language: qos.English}, {Grade: qos.TelephoneQuality, Language: qos.English}}
	doc := media.BuildNewsArticle(media.NewsArticleSpec{
		ID: "news-1", Duration: time.Minute, Servers: ids,
		VideoQualities: videos[:1+r.Intn(len(videos))],
		AudioQualities: audios[:1+r.Intn(len(audios))],
		Languages:      []qos.Language{qos.English, qos.French}[:r.Intn(3)],
	})
	for i := range doc.Temporal {
		doc.Temporal[i].Tolerance = []time.Duration{0, 3 * time.Millisecond, 5 * time.Millisecond, 80 * time.Millisecond}[r.Intn(4)]
	}
	machines := []client.Machine{client.Workstation("client-1", "client-1"), client.Workstation("client-2", "client-2")}
	return w, &doc, machines
}

// step5Offers is every combination of the document's variants, in a random
// order with random static statuses.
func step5Offers(r *rand.Rand, doc *media.Document) []offer.Ranked {
	offers := []offer.Ranked{{SystemOffer: &offer.SystemOffer{Document: doc.ID}}}
	for _, mono := range doc.Monomedia {
		var next []offer.Ranked
		for _, o := range offers {
			for k := range mono.Variants {
				so := &offer.SystemOffer{Document: doc.ID, Choices: append(slices.Clone(o.Choices), offer.Choice{Monomedia: mono.ID, Variant: &mono.Variants[k]})}
				next = append(next, offer.Ranked{SystemOffer: so})
			}
		}
		offers = next
	}
	r.Shuffle(len(offers), func(i, j int) { offers[i], offers[j] = offers[j], offers[i] })
	for i := range offers {
		offers[i].Status = offer.Status(r.Intn(3))
	}
	return offers
}

// step5State renders everything step 5 leaves behind that both walks must
// agree on: breaker and load per server, every link's spare capacity, the
// live reservation counts and the ledger's open entries.
func (w *step5World) state() string {
	s := fmt.Sprintf("servers %+v\n", w.man.ServerLoads())
	for _, n := range w.net.Nodes() {
		s += string(n) + " "
	}
	for _, id := range []network.LinkID{"client-1:fwd", "client-1:rev", "client-2:fwd", "client-2:rev", "server-1:fwd", "server-1:rev", "server-2:fwd", "server-2:rev", "server-3:fwd", "server-3:rev"} {
		if a, ok := w.net.Available(id); ok {
			s += fmt.Sprintf("%s=%d ", id, a)
		}
	}
	return s + fmt.Sprintf("\nnet %d, ledger %d", w.net.ActiveReservations(), w.led.Open())
}

// outcomes renders every server row's decayed commit outcomes, by server.
func (w *step5World) outcomes() string {
	t := w.man.servers
	t.mu.RLock()
	defer t.mu.RUnlock()
	var rows []string
	for id, rec := range t.servers {
		rows = append(rows, fmt.Sprintf("%s %v", id, rec.outcomes))
	}
	slices.Sort(rows)
	return strings.Join(rows, " ")
}

// commitView is a commit result without reservation ids, which the walks
// are free to number differently: each held choice is rendered as the rate,
// route and metrics its ids were granted with, and an id the world does not
// hold granted renders as such.
func (w *step5World) commitView(c commitResult) string {
	s := fmt.Sprintf("ok=%v downs=%d capacities=%d constraints=%d skipped=%d retry=%v",
		c.ok, c.downs, c.capacities, c.constraints, c.skipped, c.retryAfter)
	if !c.ok {
		return s
	}
	s += " chosen=" + c.chosen.Key()
	for _, h := range c.commit.choices {
		rate, ok := w.grants.rates[serverGrant{h.server.ID(), h.res}]
		conn, connOK := w.grants.conns[h.conn]
		if !ok || !connOK && h.conn != 0 {
			s += fmt.Sprintf(" [%s not granted]", h.server.ID())
			continue
		}
		s += fmt.Sprintf(" [%s rate=%v path=%v metrics=%+v]", h.server.ID(), rate, conn.Reservation.Path, conn.Metrics)
	}
	return s
}

// runStep5Scenario drives both worlds through one scenario and reports the
// first difference.
func runStep5Scenario(t *testing.T, sc step5Scenario) error {
	plan, doc, machines := newStep5World(t, sc.Seed)
	ref, _, _ := newStep5World(t, sc.Seed)
	r := rand.New(rand.NewSource(sc.Seed + 1))
	offers := step5Offers(r, doc)
	u := tvProfile()
	ctx := context.Background()
	for step := 0; step < 40; step++ {
		switch op := r.Intn(20); {
		case op < 11:
			mach := &machines[r.Intn(len(machines))]
			u.Desired.Time.MaxStartDelay = []time.Duration{0, 0, time.Second + 3*time.Millisecond, 2 * time.Second}[r.Intn(4)]
			skip := ""
			var leaving *offer.SystemOffer
			if r.Intn(3) == 0 {
				// A copy: step 5 passes over the offer with the key of
				// the one left, not over one pointer.
				left := *offers[r.Intn(len(offers))].SystemOffer
				skip, leaving = left.Key(), &left
			}
			// The classical order as a policy still takes the policy
			// path, which partitions the offers before the walk.
			var pol Policy
			if r.Intn(2) == 0 {
				pol = orderFunc(func([]PolicyCandidate) []int { return nil })
			}
			got, err := plan.man.commitFirst(ctx, mach, doc, &u, presorted(offers), leaving, nil, pol, "negotiate")
			if err != nil {
				return err
			}
			want, err := ref.man.refCommitFirst(ctx, mach, doc, &u, offers, skip, pol)
			if err != nil {
				return err
			}
			if g, w := plan.commitView(got), ref.commitView(want); g != w {
				return fmt.Errorf("step %d: commit\n\tplanned   %s\n\treference %s", step, g, w)
			}
			if got.ok {
				if r.Intn(3) == 0 {
					plan.man.release(got.commit)
					ref.man.release(want.commit)
				} else {
					plan.held, ref.held = append(plan.held, got.commit), append(ref.held, want.commit)
				}
			}
		case op < 14 && len(plan.held) > 0:
			i := r.Intn(len(plan.held))
			plan.man.release(plan.held[i])
			ref.man.release(ref.held[i])
			plan.held, ref.held = slices.Delete(plan.held, i, i+1), slices.Delete(ref.held, i, i+1)
		case op < 16:
			i, f := r.Intn(len(plan.raw)), []float64{0, 0.5, 0.9, 0.99}[r.Intn(4)]
			plan.raw[i].SetDegradation(f)
			ref.raw[i].SetDegradation(f)
		case op < 17:
			id := network.LinkID(fmt.Sprintf("client-%d:rev", 1+r.Intn(2)))
			f := []float64{0, 0.5, 0.9}[r.Intn(3)]
			plan.net.SetLinkDegradation(id, f)
			ref.net.SetLinkDegradation(id, f)
		case op < 19:
			i, down := r.Intn(len(plan.servers)), r.Intn(2) == 0
			plan.servers[i].setDown(down)
			ref.servers[i].setDown(down)
		default:
			d := time.Duration(r.Intn(40)) * time.Second
			plan.eng.Run(plan.eng.Now() + d)
			ref.eng.Run(ref.eng.Now() + d)
		}
		if g, w := plan.state(), ref.state(); g != w {
			return fmt.Errorf("step %d: state\n\tplanned   %s\n\treference %s", step, g, w)
		}
		if g, w := plan.outcomes(), ref.outcomes(); g != w {
			return fmt.Errorf("step %d: commit outcomes\n\tplanned   %s\n\treference %s", step, g, w)
		}
	}
	for i := range plan.held {
		plan.man.release(plan.held[i])
	}
	if err := plan.led.CheckEmpty(); err != nil {
		return fmt.Errorf("planned world after releasing everything: %v", err)
	}
	return nil
}

// TestStep5MatchesReserveAndRollback holds step 5, which plans an offer
// before it reserves it, to the reserve-and-rollback walk it replaced: on
// random stars with shared client access links, random disks, degraded
// servers and links, crashed servers, a breaker that quarantines, start-delay
// and synchronization bounds and adaptations that skip an offer, both give
// the same outcome, tallies, retry hint, commitment (servers, routes and
// metrics), breaker state, each server's decayed commit outcomes, and
// substrate and ledger occupancy after every operation. Only reservation ids may differ.
func TestStep5MatchesReserveAndRollback(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	var firstErr error
	check := func(sc step5Scenario) bool {
		if err := runStep5Scenario(t, sc); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("seed %d: %v", sc.Seed, err)
			}
			return false
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatalf("%v\n%v", err, firstErr)
	}
}
