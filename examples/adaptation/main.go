// Adaptation walk-through on a dual-path network: a session streams over
// the primary route; mid-playout the primary inter-switch link loses 95% of
// its capacity; the adaptation monitor detects the QoS violation, the QoS
// manager re-runs the commitment step over the remaining classified offers,
// and the presentation continues from the interrupted position over the
// backup configuration — without user intervention (Section 4).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"qosneg/internal/adaptation"
	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/registry"
	"qosneg/internal/session"
	"qosneg/internal/sim"
	"qosneg/internal/transport"
)

func main() {
	// Two servers behind disjoint routes; only the topology differs from
	// the star-based examples, so the substrate is assembled by hand.
	net := network.New()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(net.AddDuplex("access", "client-1", "sw1", 100*qos.MBitPerSecond, time.Millisecond, time.Millisecond, 0.0003))
	must(net.AddDuplex("route-a", "sw1", "server-1", 10*qos.MBitPerSecond, 2*time.Millisecond, 2*time.Millisecond, 0.0003))
	must(net.AddDuplex("route-b", "sw1", "server-2", 10*qos.MBitPerSecond, 3*time.Millisecond, 2*time.Millisecond, 0.0003))

	reg := registry.New()
	man := core.NewManager(reg, transport.New(net, 3), cost.DefaultPricing(), core.DefaultOptions())
	servers := map[media.ServerID]*cmfs.Server{}
	for _, id := range []media.ServerID{"server-1", "server-2"} {
		srv := cmfs.MustServer(id, cmfs.DefaultConfig())
		servers[id] = srv
		man.AddServer(srv, network.NodeID(id))
	}

	doc := media.BuildNewsArticle(media.NewsArticleSpec{
		ID:       "news-1",
		Title:    "Adaptation demo",
		Duration: 2 * time.Minute,
		Servers:  []media.ServerID{"server-1", "server-2"},
		VideoQualities: []qos.VideoQoS{
			{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution},
		},
		AudioQualities: []qos.AudioQoS{
			{Grade: qos.CDQuality}, {Grade: qos.TelephoneQuality},
		},
	})
	must(reg.Add(doc))

	mach := client.Workstation("client-1", "client-1")
	u := profile.DefaultProfiles()[0] // tv-quality
	u.Desired.Cost.MaxCost = cost.Dollars(12)
	u.Worst.Cost.MaxCost = cost.Dollars(12)

	res, err := man.NegotiateContext(context.Background(), mach, doc.ID, u)
	must(err)
	if !res.Status.Reserved() {
		log.Fatalf("negotiation: %v (%s)", res.Status, res.Reason)
	}
	s := res.Session
	fmt.Printf("t=0s    %s: %s\n", res.Status, s.Current.SystemOffer)
	videoServer := s.Current.Choices[0].Variant.Server
	fmt.Printf("        video streams from %s\n", videoServer)

	eng := sim.NewEngine()
	mon := adaptation.New(man, net, servers["server-1"], servers["server-2"])
	mon.Attach(eng, 5*time.Second, func(r adaptation.Report) {
		for _, tr := range r.Adapted {
			fmt.Printf("t=%-5s adaptation: %s → %s (restart at %s)\n",
				eng.Now(), tr.From.Key(), tr.To.Key(), time.Duration(tr.Position))
		}
	})

	player := session.NewPlayer(eng, man)
	var out session.Outcome
	must(player.Play(s, doc, func(o session.Outcome) { out = o }))

	// Choke the route carrying the video at t=40s.
	route := network.LinkID("route-a:rev")
	if videoServer == "server-2" {
		route = "route-b:rev"
	}
	eng.MustSchedule(40*time.Second, func() {
		fmt.Printf("t=%-5s EVENT: link %s degraded to 5%% capacity\n", eng.Now(), route)
		must(net.SetLinkDegradation(route, 0.95))
	})

	eng.Run(10 * time.Minute)
	fmt.Printf("t=%-5s playout %s at position %s, %d transition(s), final offer %s\n",
		out.FinishedAt, out.State, out.Position, out.Transitions, s.Current.Key())
}
