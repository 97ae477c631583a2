package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"qosneg/internal/adaptation"
	"qosneg/internal/clock"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/qos"
	"qosneg/internal/session"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
)

// This file regenerates the substrate ablations: E16 quantifies the paper's
// fourth design characteristic ("automatic adaptation to react to QoS
// degradations without the direct intervention by the user/application") by
// running the same congestion scenario with and without the adaptation
// monitor; E17 ablates the CMFS admission policy (the [Neu 96] VBR design
// point the server substrate encodes).

func init() {
	register(Experiment{
		ID:    "E16",
		Title: "Adaptation on/off: session survival under congestion",
		Paper: "design characteristic (4), Section 1/4",
		Run:   runE16,
	})
	register(Experiment{
		ID:    "E17",
		Title: "CMFS admission policy: by-average vs. by-peak",
		Paper: "[Neu 96] substrate design point",
		Run:   runE17,
	})
}

func runE16(w io.Writer) error {
	fmt.Fprintln(w, "8 concurrent 2-minute sessions across 2 servers; at t=30s one server loses")
	fmt.Fprintln(w, "90% of its disk bandwidth for the rest of the run.")
	offViol := 0
	for _, withMonitor := range []bool{false, true} {
		completed, aborted, adapted, violSecs := runE16One(withMonitor)
		label := "adaptation OFF"
		if withMonitor {
			label = "adaptation ON"
		} else {
			offViol = violSecs
		}
		fmt.Fprintf(w, "%-15s completed %d/8, aborted %d, transitions %d, violated-QoS stream-seconds %d\n",
			label, completed, aborted, adapted, violSecs)
		if withMonitor && violSecs >= offViol {
			return fmt.Errorf("adaptation did not reduce violation time (%d vs %d)", violSecs, offViol)
		}
	}
	fmt.Fprintln(w, "expected shape: without the monitor the congested server stays overcommitted")
	fmt.Fprintln(w, "until its sessions drain (every affected second is a stalling player); with")
	fmt.Fprintln(w, "the monitor the violations are repaired within one scan interval.")
	return nil
}

// runE16One returns (completed, aborted, transitions, violatedStreamSeconds).
func runE16One(withMonitor bool) (int, int, int, int) {
	bed := testbed.MustNew(testbed.Spec{
		Clients:        4,
		Servers:        2,
		AccessCapacity: 25 * qos.MBitPerSecond,
	})
	if _, err := bed.AddNewsArticle("news-1", "Article", 2*time.Minute); err != nil {
		panic(err)
	}
	doc, _ := bed.Registry.Document("news-1")

	eng := sim.NewEngine()
	player := session.NewPlayer(clock.Sim(eng), bed.Manager, time.Second)
	if withMonitor {
		var servers []*cmfs.Server
		for _, id := range bed.ServerIDs() {
			servers = append(servers, bed.Servers[id])
		}
		adaptation.New(bed.Manager, bed.Network, servers...).Attach(eng, nil)
	}
	completed, aborted := 0, 0
	transitions := 0
	for i := 0; i < 8; i++ {
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(i%4+1), "news-1", tvRequest())
		if err != nil || !res.Status.Reserved() {
			continue
		}
		if err := player.Play(res.Session, doc, func(o session.Outcome) {
			transitions += o.Transitions
			if o.State == core.Completed {
				completed++
			} else {
				aborted++
			}
		}); err != nil {
			panic(err)
		}
	}
	eng.MustSchedule(30*time.Second, func() {
		bed.Servers["server-1"].SetDegradation(0.9)
	})
	// Sample violated streams once per virtual second.
	violSecs := 0
	var sample func()
	sample = func() {
		for _, id := range bed.ServerIDs() {
			violSecs += len(bed.Servers[id].Overcommitted())
		}
		violSecs += len(bed.Network.Overcommitted())
		eng.MustSchedule(time.Second, sample)
	}
	eng.MustSchedule(time.Second, sample)
	eng.Run(4 * time.Minute)
	return completed, aborted, transitions, violSecs
}

func runE17(w io.Writer) error {
	fmt.Fprintln(w, "one 64 Mbit/s CMFS; VBR video streams with avg 2 Mbit/s, peak 6 Mbit/s")
	fmt.Fprintln(w, "(3:1 burstiness, typical MPEG-1 with large I-frames).")
	n := qos.NetworkQoS{MaxBitRate: 6 * qos.MBitPerSecond, AvgBitRate: 2 * qos.MBitPerSecond}
	for _, policy := range []cmfs.AdmissionPolicy{cmfs.ByPeak, cmfs.ByAverage} {
		cfg := cmfs.DefaultConfig()
		cfg.Policy = policy
		srv := cmfs.MustServer(media.ServerID("s1"), cfg)
		admitted := 0
		for {
			if _, err := srv.Reserve(n); err != nil {
				break
			}
			admitted++
		}
		fmt.Fprintf(w, "%-11s admits %2d streams (utilization %.2f)\n",
			policy, admitted, srv.Utilization())
	}
	fmt.Fprintln(w, "expected shape: average-rate admission (the [Neu 96] statistical-multiplexing")
	fmt.Fprintln(w, "design, peaks absorbed by client buffers) carries ~3× the deterministic")
	fmt.Fprintln(w, "peak-rate admission — the reason the prototype's CMFS is a VBR server.")
	return nil
}

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "Variant replication: copies as variants vs. availability",
		Paper: "Section 2 (\"copies of the same file are considered also as variants\")",
		Run:   runE18,
	})
}

func runE18(w io.Writer) error {
	fmt.Fprintln(w, "60 back-to-back requests, 3 servers; the catalog's variants are replicated")
	fmt.Fprintln(w, "onto 1, 2 or 3 servers. More copies = more placements for steps 4-5 to")
	fmt.Fprintln(w, "choose from when a server fills up.")
	base := 0
	for _, factor := range []int{1, 2, 3} {
		accepted := runE18One(factor)
		fmt.Fprintf(w, "replication %d: %2d/60 accepted\n", factor, accepted)
		if factor == 1 {
			base = accepted
		} else if accepted < base {
			return fmt.Errorf("replication %d accepted %d < unreplicated %d", factor, accepted, base)
		}
	}
	fmt.Fprintln(w, "expected shape: replication lifts acceptance until another resource (the")
	fmt.Fprintln(w, "client access links) becomes the bottleneck.")
	return nil
}

func runE18One(factor int) int {
	// Small servers so placement headroom matters.
	cfg := cmfs.Config{
		DiskRate:    24 * qos.MBitPerSecond,
		SeekTime:    4 * time.Millisecond,
		RoundLength: time.Second,
		MaxStreams:  64,
	}
	bed := testbed.MustNew(testbed.Spec{
		Clients:        6,
		Servers:        3,
		AccessCapacity: 100 * qos.MBitPerSecond,
		ServerConfig:   &cfg,
	})
	// A skewed catalog: every variant of the hot article initially lives
	// on server-1.
	doc := media.BuildNewsArticle(media.NewsArticleSpec{
		ID:       "hot-1",
		Title:    "Hot article",
		Duration: 2 * time.Minute,
		Servers:  []media.ServerID{"server-1"},
		VideoQualities: []qos.VideoQoS{
			{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.Grey, FrameRate: 15, Resolution: qos.TVResolution},
		},
		AudioQualities: []qos.AudioQoS{
			{Grade: qos.CDQuality, Language: qos.English},
			{Grade: qos.TelephoneQuality, Language: qos.English},
		},
	})
	doc = media.Replicate(doc, []media.ServerID{"server-1", "server-2", "server-3"}, factor)
	if err := bed.Registry.Add(doc); err != nil {
		panic(err)
	}
	accepted := 0
	for i := 0; i < 60; i++ {
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(i%6+1), "hot-1", tvRequest())
		if err != nil {
			panic(err)
		}
		if res.Status.Reserved() {
			accepted++ // sessions stay live: back-to-back load
		}
	}
	return accepted
}
