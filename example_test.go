package qosneg_test

import (
	"context"
	"fmt"
	"net"
	"time"

	"qosneg"
	"qosneg/internal/adaptation"
	"qosneg/internal/client"
	"qosneg/internal/clock"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/protocol"
	"qosneg/internal/qos"
	"qosneg/internal/session"
	"qosneg/internal/sim"
	"qosneg/internal/telemetry"
	"qosneg/internal/workload"
)

// Example shows the complete public-API flow: assemble a system with
// functional options, register a news article, negotiate with a factory
// profile under a context, confirm and play to completion on the
// simulation clock.
func Example() {
	sys, err := qosneg.New(qosneg.WithClients(1), qosneg.WithServers(2))
	if err != nil {
		panic(err)
	}
	doc, err := sys.AddNewsArticle("news-1", "Election night", time.Minute)
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := sys.Negotiate(ctx, "client-1", doc.ID, "tv-quality")
	if err != nil {
		panic(err)
	}
	fmt.Println("status:", res.Status)
	fmt.Println("video:", res.Offer.Video)
	fmt.Println("audio:", res.Offer.Audio)

	eng := sim.NewEngine()
	var out session.Outcome
	if err := sys.Player(clock.Sim(eng)).Play(res.Session, doc, func(o session.Outcome) { out = o }); err != nil {
		panic(err)
	}
	eng.RunAll()
	fmt.Println("playout:", out.State, "at", out.Position)
	fmt.Println("completed:", out.State == core.Completed)
	// Output:
	// status: SUCCEEDED
	// video: (color, 25 frames/s, 480 pixels/line)
	// audio: (CD quality, english)
	// playout: completed at 1m0s
	// completed: true
}

// Example_adaptation shows §4's automatic adaptation: a session streams
// from one of two servers, each behind its own link; mid-playout that
// server's link loses 99% of its capacity, the adaptation monitor detects
// the QoS violation, the QoS manager re-runs the commitment step over the
// remaining classified offers, and the presentation continues from the
// interrupted position on the other server, without user intervention.
func Example_adaptation() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
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
	s := res.Session
	fmt.Printf("t=0s    %s: %s\n", res.Status, s.Current.SystemOffer)
	videoServer := s.Current.Choices[0].Variant.Server
	fmt.Printf("        video streams from %s\n", videoServer)

	eng := sim.NewEngine()
	sys.Monitor().Attach(clock.Sim(eng), func(r adaptation.Report) {
		for _, tr := range r.Adapted {
			fmt.Printf("t=%-5s adaptation: %s → %s (restart at %s)\n",
				eng.Now(), tr.From.Key(), tr.To.Key(), time.Duration(tr.Position))
		}
	})
	var out session.Outcome
	must(sys.Player(clock.Sim(eng)).Play(s, doc, func(o session.Outcome) { out = o }))

	// Choke the link carrying the video at t=40s.
	route := network.LinkID(fmt.Sprintf("backbone-%s:rev", videoServer))
	eng.MustSchedule(40*time.Second, func() {
		fmt.Printf("t=%-5s EVENT: link %s degraded to 1%% capacity\n", eng.Now(), route)
		must(sys.Network.SetLinkDegradation(route, 0.99))
	})

	eng.Run(10 * time.Minute)
	fmt.Printf("t=%-5s playout %s at position %s, %d transition(s), final offer %s\n",
		out.FinishedAt, out.State, out.Position, out.Transitions, s.Current.Key())
	// Output:
	// t=0s    SUCCEEDED: (color, 25 frames/s, 480 pixels/line) + (CD quality) at 3.48$
	//         video streams from server-1
	// t=40s   EVENT: link backbone-server-1:rev degraded to 1% capacity
	// t=40s   adaptation: video-v1+audio-v1 → video-v2+audio-v1 (restart at 39s)
	// t=2m1s  playout completed at position 2m0s, 1 transition(s), final offer video-v2+audio-v1
}

// Example_newsOnDemand is the scenario the paper's introduction motivates:
// four client workstations request articles from a Zipf-skewed catalog at
// Poisson arrival times; the QoS manager negotiates each request, degrading
// offers as resources tighten, sessions play out on the simulation clock,
// and the adaptation monitor repairs sessions when a server loses 90% of its
// disk bandwidth mid-run.
func Example_newsOnDemand() {
	sys, err := qosneg.New(
		qosneg.WithClients(4),
		qosneg.WithServers(3),
		qosneg.WithAccessCapacity(25*qos.MBitPerSecond),
	)
	if err != nil {
		panic(err)
	}
	var docIDs []media.DocumentID
	for i := 1; i <= 6; i++ {
		id := media.DocumentID(fmt.Sprintf("news-%d", i))
		if _, err := sys.AddNewsArticle(id, fmt.Sprintf("Article %d", i), 2*time.Minute); err != nil {
			panic(err)
		}
		docIDs = append(docIDs, id)
	}
	var clients []client.Machine
	for i := 1; i <= 4; i++ {
		m, err := sys.Client(fmt.Sprintf("client-%d", i))
		if err != nil {
			panic(err)
		}
		clients = append(clients, m)
	}
	gen, err := workload.NewGenerator(workload.Spec{
		Seed:             7,
		MeanInterArrival: 6 * time.Second,
		Documents:        docIDs,
		Clients:          clients,
		Profiles:         profile.DefaultProfiles(),
		Weights:          []int{3, 1, 2}, // tv-quality, premium, economy
	})
	if err != nil {
		panic(err)
	}

	eng := sim.NewEngine()
	player := sys.Player(clock.Sim(eng))
	sys.Monitor().Attach(clock.Sim(eng), func(r adaptation.Report) {
		for _, tr := range r.Adapted {
			fmt.Printf("t=%-6s ADAPT  session %d switched offers at position %s\n",
				eng.Now(), tr.Session, time.Duration(tr.Position))
		}
		for _, id := range r.Failed {
			fmt.Printf("t=%-6s ABORT  session %d could not be adapted\n", eng.Now(), id)
		}
	})
	var completed, aborted int
	gen.Drive(clock.Sim(eng), 60, func(req workload.Request) {
		res, err := sys.Manager.NegotiateContext(context.Background(), req.Client, req.Document, req.Profile)
		if err != nil {
			panic(err)
		}
		if !res.Status.Reserved() {
			return
		}
		doc, _ := sys.Registry.Document(req.Document)
		player.Play(res.Session, doc, func(o session.Outcome) {
			if o.State == core.Completed {
				completed++
			} else {
				aborted++
			}
		})
	})

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
	fmt.Printf("requests: %d\n", st.Requests)
	fmt.Printf("  SUCCEEDED %d, FAILEDWITHOFFER %d, FAILEDTRYLATER %d\n",
		st.Succeeded, st.FailedWithOffer, st.FailedTryLater)
	fmt.Printf("playouts: %d completed, %d aborted\n", completed, aborted)
	fmt.Printf("adaptations: %d performed, %d failed\n", st.Adaptations, st.AdaptationFailures)
	// Output:
	// t=1m30s  EVENT  server-1 degraded to 10% disk bandwidth
	// t=1m30s  ADAPT  session 1 switched offers at position 1m25s
	// t=1m30s  ADAPT  session 3 switched offers at position 1m15s
	// t=1m30s  ADAPT  session 4 switched offers at position 55s
	// t=1m30s  ADAPT  session 5 switched offers at position 49s
	// t=2m30s  EVENT  server-1 recovered
	// requests: 60
	//   SUCCEEDED 55, FAILEDWITHOFFER 3, FAILEDTRYLATER 2
	// playouts: 58 completed, 0 aborted
	// adaptations: 4 performed, 0 failed
}

// Example_protocol runs the profile manager's side of §8 over the wire: a
// client lists the catalog, negotiates, confirms within the choice period
// and inspects the session on a daemon serving a loopback listener, exactly
// as qosctl talks to qosnegd.
func Example_protocol() {
	ctx := context.Background()
	sys, err := qosneg.New(qosneg.WithClients(2), qosneg.WithServers(2), qosneg.WithMetrics(telemetry.NewRegistry()))
	if err != nil {
		panic(err)
	}
	for i, title := range []string{"Election night", "Hockey final", "Weather"} {
		id := media.DocumentID(fmt.Sprintf("news-%d", i+1))
		if _, err := sys.AddNewsArticle(id, title, 2*time.Minute); err != nil {
			panic(err)
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := protocol.NewServer(sys.Manager, sys.Registry)
	srv.Instrument(sys.Metrics)
	go srv.Serve(l)
	defer srv.Close()

	c, err := protocol.Dial(ctx, l.Addr().String())
	if err != nil {
		panic(err)
	}
	defer c.Close()

	docs, err := c.ListDocuments(ctx, "")
	if err != nil {
		panic(err)
	}
	fmt.Println("catalog:")
	for _, d := range docs {
		fmt.Printf("  %-8s %-20s %d components\n", d.ID, d.Title, d.Components)
	}

	mach, err := sys.Client("client-1")
	if err != nil {
		panic(err)
	}
	res, err := c.Negotiate(ctx, mach, docs[0].ID, profile.DefaultProfiles()[0]) // tv-quality
	if err != nil {
		panic(err)
	}
	fmt.Printf("negotiated: %s, offer video %s at %s, choice period %s\n",
		res.Status, res.Offer.Video, res.Cost, res.ChoicePeriod)
	if err := c.Confirm(ctx, res.Session); err != nil {
		panic(err)
	}
	info, err := c.Session(ctx, res.Session)
	if err != nil {
		panic(err)
	}
	fmt.Printf("confirmed → session %d state %q, cost %s\n", info.Session, info.State, info.Cost)

	snap, err := c.Metrics(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("daemon stats: %d requests, %d succeeded\n", snap.CounterValue(core.MetricNegotiations, ""),
		snap.CounterValue(core.MetricNegotiations, core.Succeeded.String()))
	// Output:
	// catalog:
	//   news-1   Election night       3 components
	//   news-2   Hockey final         3 components
	//   news-3   Weather              3 components
	// negotiated: SUCCEEDED, offer video (color, 25 frames/s, 480 pixels/line) at 3.98$, choice period 30s
	// confirmed → session 1 state "playing", cost 3.98$
	// daemon stats: 1 requests, 1 succeeded
}
