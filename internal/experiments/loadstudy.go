package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
	"qosneg/internal/transport"
	"qosneg/internal/workload"
)

// This file regenerates the synthetic studies: E8 (blocking probability
// under load: smart negotiation vs. the basic negotiation of existing QoS
// architectures), E9 (offer enumeration/classification scaling), E11
// (document-level atomic negotiation vs. per-monomedia greedy negotiation)
// and E12 (cost constraints limiting user greediness).

func init() {
	register(Experiment{
		ID:    "E8",
		Title: "Blocking probability vs. load: smart vs. basic negotiation",
		Paper: "claim: \"smart negotiation ... increases the availability of the system\"",
		Run:   runE8,
	})
	register(Experiment{
		ID:    "E9",
		Title: "Offer enumeration and classification scaling",
		Paper: "Section 4 steps 2–4 (scalability)",
		Run:   runE9,
	})
	register(Experiment{
		ID:    "E11",
		Title: "Document-level atomic negotiation vs. per-monomedia greedy",
		Paper: "claim: negotiation of a multimedia object \"as an atomic object\"",
		Run:   runE11,
	})
	register(Experiment{
		ID:    "E12",
		Title: "Cost constraints limit greediness and blocking",
		Paper: "Section 7 (cost rationale)",
		Run:   runE12,
	})
}

// manualCommit reserves the resources of one ranked offer directly against
// the substrate — the commitment step extracted for the baseline
// negotiators that bypass the QoS manager. It returns a release function,
// or ok=false after rolling back.
func manualCommit(bed *testbed.Bed, mach client.Machine, r offer.Ranked) (release func(), ok bool) {
	var serverRes []struct {
		srv *cmfs.Server
		id  cmfs.ReservationID
	}
	var conns []transport.Connection
	rollback := func() {
		for _, sr := range serverRes {
			sr.srv.Release(sr.id)
		}
		for _, c := range conns {
			bed.Transit.Close(c)
		}
	}
	for _, ch := range r.Choices {
		srv, okSrv := bed.Servers[ch.Variant.Server]
		if !okSrv {
			rollback()
			return nil, false
		}
		netQoS := ch.Variant.NetworkQoS()
		res, err := srv.Reserve(netQoS)
		if err != nil {
			rollback()
			return nil, false
		}
		serverRes = append(serverRes, struct {
			srv *cmfs.Server
			id  cmfs.ReservationID
		}{srv, res.ID})
		conn, err := bed.Transit.Connect(network.NodeID(ch.Variant.Server), mach.Node, netQoS)
		if err != nil {
			rollback()
			return nil, false
		}
		conns = append(conns, conn)
	}
	return rollback, true
}

// basicNegotiate models the "basic negotiation provided by the existing QoS
// architectures" that the paper contrasts with: the system checks whether
// the user's exact request can be supported and reserves it, or rejects —
// no classification of alternatives, no degraded offers.
func basicNegotiate(bed *testbed.Bed, mach client.Machine, doc media.Document, u profile.UserProfile) (release func(), ok bool) {
	offers, err := offer.Enumerate(doc, mach, bed.Pricing, offer.EnumerateOptions{})
	if err != nil {
		return nil, false
	}
	ranked := offer.Classify(offers, u)
	for _, r := range ranked {
		if r.Status != offer.Desirable {
			continue
		}
		if rel, ok := manualCommit(bed, mach, r); ok {
			return rel, true
		}
		// Basic negotiation tries only the request itself: the first
		// desirable configuration. No fallback.
		return nil, false
	}
	return nil, false
}

// e8Profile is a TV-quality request with head-room for degradation.
func e8Profile() profile.UserProfile {
	u := tvRequest()
	u.Desired.Cost.MaxCost = cost.Dollars(20)
	u.Worst.Cost.MaxCost = cost.Dollars(20)
	return u
}

func runE8(w io.Writer) error {
	const (
		arrivals = 120
		docs     = 6
	)
	fmt.Fprintln(w, "3 servers, 4 clients, 25 Mbit/s access links; 120 Poisson arrivals over a")
	fmt.Fprintln(w, "Zipf(1.2) catalog of 6 two-minute articles; sessions hold resources to completion.")
	fmt.Fprintln(w, "smart = paper's procedure (degraded offers allowed); basic = exact request or reject.")
	fmt.Fprintf(w, "%-18s %-42s %s\n", "mean inter-arrival", "smart: accept% desired-QoS% degraded%", "basic: accept%")

	for _, mean := range []time.Duration{20 * time.Second, 10 * time.Second, 5 * time.Second, 2 * time.Second} {
		smart := runE8Smart(mean, arrivals, docs)
		basic := runE8Basic(mean, arrivals, docs)
		fmt.Fprintf(w, "%-18s accept %5.1f%%  full %5.1f%%  degraded %5.1f%%      %5.1f%%\n",
			mean, smart.acceptPct(), smart.fullPct(), smart.degradedPct(), basic.acceptPct())
	}
	fmt.Fprintln(w, "expected shape: acceptance falls with load for both; smart keeps accepting")
	fmt.Fprintln(w, "(at degraded QoS) well past the load where basic negotiation starts blocking.")
	return nil
}

type e8Counts struct {
	requests, full, degraded int
}

func (c e8Counts) acceptPct() float64 {
	return 100 * float64(c.full+c.degraded) / float64(c.requests)
}
func (c e8Counts) fullPct() float64     { return 100 * float64(c.full) / float64(c.requests) }
func (c e8Counts) degradedPct() float64 { return 100 * float64(c.degraded) / float64(c.requests) }

func e8Bed() (*testbed.Bed, []media.DocumentID) {
	bed := testbed.MustNew(testbed.Spec{
		Clients:        4,
		Servers:        3,
		AccessCapacity: 25 * qos.MBitPerSecond,
	})
	var ids []media.DocumentID
	for i := 1; i <= 6; i++ {
		id := media.DocumentID(fmt.Sprintf("news-%d", i))
		bed.AddNewsArticle(id, fmt.Sprintf("Article %d", i), 2*time.Minute)
		ids = append(ids, id)
	}
	return bed, ids
}

func e8Workload(bed *testbed.Bed, ids []media.DocumentID, mean time.Duration) *workload.Generator {
	var clients []client.Machine
	for i := 1; i <= 4; i++ {
		clients = append(clients, bed.Client(i))
	}
	g, err := workload.NewGenerator(workload.Spec{
		Seed:             1996,
		MeanInterArrival: mean,
		Documents:        ids,
		Clients:          clients,
		Profiles:         []profile.UserProfile{e8Profile()},
	})
	if err != nil {
		panic(err)
	}
	return g
}

func runE8Smart(mean time.Duration, arrivals, docs int) e8Counts {
	bed, ids := e8Bed()
	g := e8Workload(bed, ids, mean)
	eng := sim.NewEngine()
	var counts e8Counts
	g.Drive(eng, arrivals, func(req workload.Request) {
		counts.requests++
		res, err := bed.Manager.NegotiateContext(context.Background(), req.Client, req.Document, req.Profile)
		if err != nil || !res.Status.Reserved() {
			return
		}
		if res.Session.Current.Status == offer.Desirable {
			counts.full++
		} else {
			counts.degraded++
		}
		bed.Manager.Confirm(res.Session.ID)
		doc, _ := bed.Registry.Document(req.Document)
		id := res.Session.ID
		eng.MustSchedule(doc.Duration(), func() {
			bed.Manager.Complete(id)
		})
	})
	eng.RunAll()
	return counts
}

func runE8Basic(mean time.Duration, arrivals, docs int) e8Counts {
	bed, ids := e8Bed()
	g := e8Workload(bed, ids, mean)
	eng := sim.NewEngine()
	var counts e8Counts
	g.Drive(eng, arrivals, func(req workload.Request) {
		counts.requests++
		doc, err := bed.Registry.Document(req.Document)
		if err != nil {
			return
		}
		release, ok := basicNegotiate(bed, req.Client, doc, req.Profile)
		if !ok {
			return
		}
		counts.full++
		eng.MustSchedule(doc.Duration(), release)
	})
	eng.RunAll()
	return counts
}

// synthDoc builds a document with `mediaCount` monomedia (cycling video,
// audio, text, image) and `variants` variants each, for the scaling study.
func synthDoc(mediaCount, variants int) media.Document {
	doc := media.Document{ID: "synthetic", Title: "Synthetic"}
	dur := time.Minute
	for m := 0; m < mediaCount; m++ {
		switch m % 4 {
		case 0:
			mono := media.Monomedia{ID: media.MonomediaID(fmt.Sprintf("video-%d", m)), Kind: qos.Video, Duration: dur}
			for v := 0; v < variants; v++ {
				mono.Variants = append(mono.Variants, media.VideoVariant(
					media.VariantID(fmt.Sprintf("v%d-%d", m, v)), "server-1", media.MPEG1,
					qos.VideoQoS{Color: qos.ColorQualities()[v%4], FrameRate: 5 + v%25, Resolution: 100 + 50*(v%10)},
					dur))
			}
			doc.Monomedia = append(doc.Monomedia, mono)
		case 1:
			mono := media.Monomedia{ID: media.MonomediaID(fmt.Sprintf("audio-%d", m)), Kind: qos.Audio, Duration: dur}
			for v := 0; v < variants; v++ {
				grade := qos.TelephoneQuality
				if v%2 == 1 {
					grade = qos.CDQuality
				}
				mono.Variants = append(mono.Variants, media.AudioVariant(
					media.VariantID(fmt.Sprintf("a%d-%d", m, v)), "server-1", media.MPEG1Audio,
					qos.AudioQoS{Grade: grade, Language: qos.Language(fmt.Sprintf("lang-%d", v))}, dur))
			}
			doc.Monomedia = append(doc.Monomedia, mono)
		case 2:
			mono := media.Monomedia{ID: media.MonomediaID(fmt.Sprintf("text-%d", m)), Kind: qos.Text}
			for v := 0; v < variants; v++ {
				mono.Variants = append(mono.Variants, media.TextVariant(
					media.VariantID(fmt.Sprintf("t%d-%d", m, v)), "server-1",
					qos.Language(fmt.Sprintf("lang-%d", v)), 1024))
			}
			doc.Monomedia = append(doc.Monomedia, mono)
		default:
			mono := media.Monomedia{ID: media.MonomediaID(fmt.Sprintf("image-%d", m)), Kind: qos.Image}
			for v := 0; v < variants; v++ {
				mono.Variants = append(mono.Variants, media.ImageVariant(
					media.VariantID(fmt.Sprintf("i%d-%d", m, v)), "server-1", media.JPEG,
					qos.ImageQoS{Color: qos.ColorQualities()[v%4], Resolution: 100 + 50*(v%10)}))
			}
			doc.Monomedia = append(doc.Monomedia, mono)
		}
	}
	return doc
}

func runE9(w io.Writer) error {
	mach := client.Workstation("c1", "n1")
	pricing := cost.DefaultPricing()
	u := tvRequest()
	fmt.Fprintf(w, "%-10s %-10s %-10s %s\n", "media", "variants", "offers", "enumerate+classify")
	for _, mc := range []int{1, 2, 3, 4} {
		for _, vc := range []int{2, 4, 8} {
			doc := synthDoc(mc, vc)
			start := time.Now()
			offers, err := offer.Enumerate(doc, mach, pricing, offer.EnumerateOptions{})
			if err != nil {
				return err
			}
			ranked := offer.Classify(offers, u)
			elapsed := time.Since(start)
			fmt.Fprintf(w, "%-10d %-10d %-10d %s\n", mc, vc, len(ranked), elapsed.Round(time.Microsecond))
		}
	}
	fmt.Fprintln(w, "offers grow as variants^media (the cartesian product of step 2); the")
	fmt.Fprintln(w, "classification cost is O(n log n) on top. See BenchmarkE9* for stable numbers.")
	return nil
}

func runE11(w io.Writer) error {
	// One client behind a 5.5 Mbit/s access link. Video variants: a
	// 5 Mbit/s high-quality one and a 1.5 Mbit/s reduced one; audio: CD
	// (1.4 Mbit/s) and telephone (64 kbit/s). The user values audio above
	// video (the paper's Section 3 importance example (2)).
	bed := testbed.MustNew(testbed.Spec{
		Clients:        1,
		Servers:        2,
		AccessCapacity: 5500 * qos.KBitPerSecond,
	})
	doc := e11Document()
	if err := bed.Registry.Add(doc); err != nil {
		return err
	}
	u := e11Profile()
	mach := bed.Client(1)

	fmt.Fprintln(w, "access link 5.5 Mbit/s; video {5.0, 1.5} Mbit/s, audio {1.4, 0.064} Mbit/s;")
	fmt.Fprintln(w, "user importance: audio ≫ video (Section 3, importance example (2))")

	// Greedy per-monomedia negotiation: optimize video alone, commit it,
	// then optimize audio under what is left.
	var greedyParts []offer.Ranked
	var releases []func()
	greedyOK := true
	for _, mono := range doc.Monomedia {
		sub := media.Document{ID: doc.ID, Monomedia: []media.Monomedia{mono}}
		offers, err := offer.Enumerate(sub, mach, bed.Pricing, offer.EnumerateOptions{})
		if err != nil {
			greedyOK = false
			break
		}
		ranked := offer.Classify(offers, u)
		committed := false
		for _, r := range ranked {
			if rel, ok := manualCommit(bed, mach, r); ok {
				releases = append(releases, rel)
				greedyParts = append(greedyParts, r)
				committed = true
				break
			}
		}
		if !committed {
			greedyOK = false
			break
		}
	}
	var greedyOIF float64
	var greedyDesc []string
	if greedyOK {
		for _, r := range greedyParts {
			greedyOIF += r.QoSImportance
			greedyDesc = append(greedyDesc, r.Choices[0].Variant.QoS.String())
		}
	}
	for _, rel := range releases {
		rel()
	}

	// Atomic document-level negotiation: the paper's procedure.
	res, err := bed.Manager.NegotiateContext(context.Background(), mach, doc.ID, u)
	if err != nil {
		return err
	}
	if !res.Status.Reserved() {
		return fmt.Errorf("atomic negotiation failed: %v", res.Status)
	}
	atomic := res.Session.Current
	fmt.Fprintf(w, "greedy per-monomedia: %v  (QoS importance %.4g)\n", greedyDesc, greedyOIF)
	fmt.Fprintf(w, "atomic document-level: %s  (QoS importance %.4g, %v)\n",
		atomic.SystemOffer, atomic.QoSImportance, res.Status)
	if greedyOK && atomic.QoSImportance <= greedyOIF {
		return fmt.Errorf("atomic negotiation should beat greedy here (%.4g vs %.4g)",
			atomic.QoSImportance, greedyOIF)
	}
	fmt.Fprintln(w, "greedy locks the 5 Mbit/s video first and strands the audio at telephone")
	fmt.Fprintln(w, "quality; optimizing the document atomically trades video bits for CD audio.")
	return nil
}

func e11Document() media.Document {
	dur := 2 * time.Minute
	video := media.Monomedia{ID: "video", Kind: qos.Video, Duration: dur}
	hq := media.VideoVariant("video-hq", "server-1", media.MPEG1,
		qos.VideoQoS{Color: qos.Color, FrameRate: 30, Resolution: 640}, dur)
	hq.Blocks = qos.BlockStats{MaxBlockBytes: 41800, AvgBlockBytes: 20900} // ~5.0 Mbit/s avg
	lq := media.VideoVariant("video-lq", "server-2", media.MPEG1,
		qos.VideoQoS{Color: qos.Color, FrameRate: 15, Resolution: 480}, dur)
	lq.Blocks = qos.BlockStats{MaxBlockBytes: 25000, AvgBlockBytes: 12500} // ~1.5 Mbit/s avg
	video.Variants = []media.Variant{hq, lq}

	audio := media.Monomedia{ID: "audio", Kind: qos.Audio, Duration: dur}
	audio.Variants = []media.Variant{
		media.AudioVariant("audio-cd", "server-1", media.MPEG1Audio, qos.AudioQoS{Grade: qos.CDQuality}, dur),
		media.AudioVariant("audio-tel", "server-2", media.MPEG1Audio, qos.AudioQoS{Grade: qos.TelephoneQuality}, dur),
	}
	return media.Document{ID: "doc-atomic", Title: "Atomicity study", Monomedia: []media.Monomedia{video, audio}}
}

func e11Profile() profile.UserProfile {
	u := profile.UserProfile{
		Name: "audio-first",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 15, Resolution: 480},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(20)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 10, Resolution: 480},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(20)},
		},
		Importance: profile.Importance{
			VideoColor: map[qos.ColorQuality]float64{qos.Color: 2},
			FrameRate:  profile.NewCurve(profile.Point{X: 15, Y: 1}, profile.Point{X: 30, Y: 3}),
			Resolution: profile.NewCurve(profile.Point{X: 480, Y: 1}, profile.Point{X: 640, Y: 2}),
			AudioGrade: map[qos.AudioGrade]float64{
				qos.TelephoneQuality: 2, qos.CDQuality: 20, // audio dominates
			},
			CostPerDollar: 0.1,
		},
	}
	return u
}

func runE12(w io.Writer) error {
	fmt.Fprintln(w, "40 back-to-back requests against 2 servers / 10 Mbit/s access links.")
	fmt.Fprintln(w, "greedy users (no cost constraint) all demand the 5 Mbit/s variant; capped")
	fmt.Fprintln(w, "users accept what their 4$ budget buys.")
	for _, scenario := range []struct {
		name   string
		budget cost.Money
		costW  float64
	}{
		{"no cost constraint", cost.Dollars(1000), 0},
		{"4$ budget", cost.Dollars(4), 1},
	} {
		bed := testbed.MustNew(testbed.Spec{
			Clients:        4,
			Servers:        2,
			AccessCapacity: 10 * qos.MBitPerSecond,
		})
		if err := bed.Registry.Add(e12Document(bed)); err != nil {
			return err
		}
		u := e11Profile()
		u.Desired.Cost.MaxCost = scenario.budget
		u.Worst.Cost.MaxCost = scenario.budget
		u.Importance.CostPerDollar = scenario.costW
		admitted, degraded, blocked := 0, 0, 0
		var revenue cost.Money
		for i := 0; i < 40; i++ {
			mach := bed.Client(i%4 + 1)
			res, err := bed.Manager.NegotiateContext(context.Background(), mach, "doc-greed", u)
			if err != nil {
				return err
			}
			switch {
			case res.Status == core.Succeeded:
				admitted++
				revenue += res.Session.Cost()
				bed.Manager.Confirm(res.Session.ID)
			case res.Status == core.FailedWithOffer:
				degraded++
				revenue += res.Session.Cost()
				bed.Manager.Confirm(res.Session.ID)
			default:
				blocked++
			}
		}
		fmt.Fprintf(w, "%-20s admitted %2d (full %2d, degraded %2d), blocked %2d, revenue %s\n",
			scenario.name, admitted+degraded, admitted, degraded, blocked, revenue)
	}
	fmt.Fprintln(w, "expected shape: without cost constraints the big variants exhaust the access")
	fmt.Fprintln(w, "links quickly and later users are blocked; the budget steers users to cheap")
	fmt.Fprintln(w, "variants and more of them are admitted (the Section 7 rationale).")
	return nil
}

func e12Document(bed *testbed.Bed) media.Document {
	doc := e11Document()
	doc.ID = "doc-greed"
	return doc
}
