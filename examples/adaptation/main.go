// Adaptation walk-through: a session streams from one of two servers; mid-
// playout that server's link loses 99% of its capacity; the adaptation
// monitor detects the QoS violation, the QoS manager re-runs the commitment
// step over the remaining classified offers, and the presentation continues
// from the interrupted position from the other server — without user
// intervention (Section 4).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"qosneg"
	"qosneg/internal/adaptation"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/session"
	"qosneg/internal/sim"
)

func main() {
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// One client and two servers around a switch: each server sits behind
	// its own link, so the two replicas of every variant are reached over
	// disjoint routes.
	sys, err := qosneg.New(qosneg.WithClients(1), qosneg.WithServers(2))
	must(err)

	doc := media.BuildNewsArticle(media.NewsArticleSpec{
		ID:       "news-1",
		Title:    "Adaptation demo",
		Duration: 2 * time.Minute,
		Servers:  sys.ServerIDs(),
		VideoQualities: []qos.VideoQoS{
			{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution},
		},
		AudioQualities: []qos.AudioQoS{
			{Grade: qos.CDQuality}, {Grade: qos.TelephoneQuality},
		},
	})
	must(sys.AddDocument(doc))

	mach, err := sys.Client("client-1")
	must(err)
	u, err := sys.Profiles.Get("tv-quality")
	must(err)
	u.Desired.Cost.MaxCost = cost.Dollars(12)
	u.Worst.Cost.MaxCost = cost.Dollars(12)

	res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
	must(err)
	if !res.Status.Reserved() {
		log.Fatalf("negotiation: %v (%s)", res.Status, res.Reason)
	}
	s := res.Session
	fmt.Printf("t=0s    %s: %s\n", res.Status, s.Current.SystemOffer)
	videoServer := s.Current.Choices[0].Variant.Server
	fmt.Printf("        video streams from %s\n", videoServer)

	eng := sim.NewEngine()
	sys.Monitor().Attach(eng, 5*time.Second, func(r adaptation.Report) {
		for _, tr := range r.Adapted {
			fmt.Printf("t=%-5s adaptation: %s → %s (restart at %s)\n",
				eng.Now(), tr.From.Key(), tr.To.Key(), time.Duration(tr.Position))
		}
	})

	var out session.Outcome
	must(sys.Player(eng).Play(s, doc, func(o session.Outcome) { out = o }))

	// Choke the link carrying the video at t=40s.
	route := network.LinkID(fmt.Sprintf("backbone-%s:rev", videoServer))
	eng.MustSchedule(40*time.Second, func() {
		fmt.Printf("t=%-5s EVENT: link %s degraded to 1%% capacity\n", eng.Now(), route)
		must(sys.Network.SetLinkDegradation(route, 0.99))
	})

	eng.Run(10 * time.Minute)
	fmt.Printf("t=%-5s playout %s at position %s, %d transition(s), final offer %s\n",
		out.FinishedAt, out.State, out.Position, out.Transitions, s.Current.Key())
}
