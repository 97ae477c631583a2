// News-on-demand under load: the scenario the paper's introduction
// motivates. Four client workstations request articles from a Zipf-skewed
// catalog at Poisson arrival times; the QoS manager negotiates each request
// (degrading offers as resources tighten), sessions play out on the
// simulation clock, and the adaptation monitor repairs sessions when a
// server loses half its disk bandwidth mid-run.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"qosneg"
	"qosneg/internal/adaptation"
	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/session"
	"qosneg/internal/sim"
	"qosneg/internal/workload"
)

func main() {
	sys, err := qosneg.New(
		qosneg.WithClients(4),
		qosneg.WithServers(3),
		qosneg.WithAccessCapacity(25*qos.MBitPerSecond),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Catalog of six articles spread across the three servers.
	var docIDs []media.DocumentID
	for i := 1; i <= 6; i++ {
		id := media.DocumentID(fmt.Sprintf("news-%d", i))
		if _, err := sys.AddNewsArticle(id, fmt.Sprintf("Article %d", i), 2*time.Minute); err != nil {
			log.Fatal(err)
		}
		docIDs = append(docIDs, id)
	}

	var clients []client.Machine
	for i := 1; i <= 4; i++ {
		m, err := sys.Client(fmt.Sprintf("client-%d", i))
		if err != nil {
			log.Fatal(err)
		}
		clients = append(clients, m)
	}
	profiles := profile.DefaultProfiles()

	gen, err := workload.NewGenerator(workload.Spec{
		Seed:             7,
		MeanInterArrival: 6 * time.Second,
		Documents:        docIDs,
		Clients:          clients,
		Profiles:         profiles,
		Weights:          []int{3, 1, 2}, // tv-quality, premium, economy
	})
	if err != nil {
		log.Fatal(err)
	}

	eng := sim.NewEngine()
	player := sys.Player(eng)
	sys.Monitor().Attach(eng, func(r adaptation.Report) {
		for _, tr := range r.Adapted {
			fmt.Printf("t=%-6s ADAPT  session %d switched offers at position %s\n",
				eng.Now(), tr.Session, time.Duration(tr.Position))
		}
		for _, id := range r.Failed {
			fmt.Printf("t=%-6s ABORT  session %d could not be adapted\n", eng.Now(), id)
		}
	})

	var completed, aborted int
	gen.Drive(eng, 60, func(req workload.Request) {
		res, err := sys.Manager.NegotiateContext(context.Background(), req.Client, req.Document, req.Profile)
		if err != nil {
			log.Fatal(err)
		}
		switch res.Status {
		case core.Succeeded, core.FailedWithOffer:
			fmt.Printf("t=%-6s %-16s %s on %s: video %s at %s\n",
				eng.Now(), res.Status, req.Profile.Name, req.Document,
				res.Offer.Video, res.Session.Cost())
			doc, _ := sys.Registry.Document(req.Document)
			player.Play(res.Session, doc, func(o session.Outcome) {
				if o.State == core.Completed {
					completed++
				} else {
					aborted++
				}
			})
		default:
			fmt.Printf("t=%-6s %-16s %s on %s (%s)\n",
				eng.Now(), res.Status, req.Profile.Name, req.Document, res.Reason)
		}
	})

	// Mid-run congestion: server-1 loses 90% of its disk bandwidth for a
	// minute, then recovers.
	eng.MustSchedule(90*time.Second, func() {
		fmt.Printf("t=%-6s EVENT  server-1 degraded to 10%% disk bandwidth\n", eng.Now())
		sys.Servers["server-1"].SetDegradation(0.9)
	})
	eng.MustSchedule(150*time.Second, func() {
		fmt.Printf("t=%-6s EVENT  server-1 recovered\n", eng.Now())
		sys.Servers["server-1"].SetDegradation(0)
	})

	eng.Run(20 * time.Minute)

	st := sys.Manager.Stats()
	fmt.Println()
	fmt.Printf("requests:   %d\n", st.Requests)
	fmt.Printf("  SUCCEEDED %d, FAILEDWITHOFFER %d, FAILEDTRYLATER %d\n",
		st.Succeeded, st.FailedWithOffer, st.FailedTryLater)
	fmt.Printf("playouts:   %d completed, %d aborted\n", completed, aborted)
	fmt.Printf("adaptations: %d performed, %d failed\n", st.Adaptations, st.AdaptationFailures)
}
