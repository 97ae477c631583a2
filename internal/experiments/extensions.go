package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"qosneg/internal/booking"
	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/domain"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
	"qosneg/internal/workload"
)

// This file regenerates the extension studies: E13 ablates the
// classification scheme (the design choice DESIGN.md calls out: SNS-primary
// with OIF-secondary vs. the single-key alternatives the paper argues
// against in Section 5), and E14 demonstrates negotiation with future
// reservations, the [Haf 96] extension cited from Section 5.

func init() {
	register(Experiment{
		ID:    "E13",
		Title: "Classifier ablation: SNS-primary vs. OIF-only vs. cost-only vs. QoS-only",
		Paper: "Section 5 design rationale",
		Run:   runE13,
	})
	register(Experiment{
		ID:    "E14",
		Title: "Future reservations: advance booking vs. walk-in",
		Paper: "[Haf 96] extension, cited in Section 5",
		Run:   runE14,
	})
}

func runE13(w io.Writer) error {
	fmt.Fprintln(w, "same load as E8 (120 arrivals, mean inter-arrival 5s), varying only the")
	fmt.Fprintln(w, "classifier that orders offers before commitment. satisfaction = mean QoS")
	fmt.Fprintln(w, "importance of granted offers; cost = mean price per granted session.")
	fmt.Fprintf(w, "%-12s %-9s %-13s %-13s %s\n", "classifier", "accept%", "desired-QoS%", "satisfaction", "mean cost")

	classifiers := []offer.Orderer{
		offer.SNSPrimary{}, offer.OIFOnly{}, offer.CostOnly{}, offer.QoSOnly{},
	}
	for _, cl := range classifiers {
		stats := runE13One(cl)
		fmt.Fprintf(w, "%-12s %8.1f%% %12.1f%% %13.2f %12s\n",
			cl.Name(), stats.acceptPct(), stats.desiredPct(), stats.meanSatisfaction(), stats.meanCost())
	}
	fmt.Fprintln(w, "expected shape: cost-only grants cheap low-QoS offers (high acceptance, low")
	fmt.Fprintln(w, "satisfaction); qos-only books the most expensive configurations (lower")
	fmt.Fprintln(w, "acceptance); sns-primary holds acceptance near cost-only at much higher")
	fmt.Fprintln(w, "satisfaction — the paper's two-key rationale.")
	return nil
}

type e13Stats struct {
	requests, granted, desired int
	satisfaction               float64
	cost                       int64
}

func (s e13Stats) acceptPct() float64  { return 100 * float64(s.granted) / float64(s.requests) }
func (s e13Stats) desiredPct() float64 { return 100 * float64(s.desired) / float64(s.requests) }
func (s e13Stats) meanSatisfaction() float64 {
	if s.granted == 0 {
		return 0
	}
	return s.satisfaction / float64(s.granted)
}
func (s e13Stats) meanCost() string {
	if s.granted == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f$", float64(s.cost)/float64(s.granted)/1000)
}

func runE13One(cl offer.Orderer) e13Stats {
	opts := core.DefaultOptions()
	opts.Classifier = cl
	bed := testbed.MustNew(testbed.Spec{
		Clients:        4,
		Servers:        3,
		AccessCapacity: 25 * qos.MBitPerSecond,
		Options:        &opts,
	})
	var ids []media.DocumentID
	for i := 1; i <= 6; i++ {
		id := media.DocumentID(fmt.Sprintf("news-%d", i))
		bed.AddNewsArticle(id, fmt.Sprintf("Article %d", i), 2*time.Minute)
		// Add a luxury variant (super-color, 30 fps, 720 px — ~9 Mbit/s)
		// that exceeds the desired QoS: the greedy QoS-only classifier
		// books it and crowds the links; SNS-primary prefers the
		// desired-satisfying cheaper variant.
		doc, _ := bed.Registry.Document(id)
		for mi := range doc.Monomedia {
			if doc.Monomedia[mi].Kind == qos.Video {
				lux := media.VideoVariant(
					media.VariantID(fmt.Sprintf("video-lux-%d", i)), "server-1", media.MPEG1,
					qos.VideoQoS{Color: qos.SuperColor, FrameRate: 30, Resolution: 720},
					doc.Monomedia[mi].Duration)
				doc.Monomedia[mi].Variants = append(doc.Monomedia[mi].Variants, lux)
			}
		}
		bed.Registry.Add(doc)
		ids = append(ids, id)
	}
	var clients []client.Machine
	for i := 1; i <= 4; i++ {
		clients = append(clients, bed.Client(i))
	}
	g, err := workload.NewGenerator(workload.Spec{
		Seed:             1996,
		MeanInterArrival: 5 * time.Second,
		Documents:        ids,
		Clients:          clients,
		Profiles:         []profile.UserProfile{e8Profile()},
	})
	if err != nil {
		panic(err)
	}
	eng := sim.NewEngine()
	var stats e13Stats
	g.Drive(eng, 120, func(req workload.Request) {
		stats.requests++
		res, err := bed.Manager.NegotiateContext(context.Background(), req.Client, req.Document, req.Profile)
		if err != nil || !res.Status.Reserved() {
			return
		}
		stats.granted++
		if res.Session.Current.Status == offer.Desirable {
			stats.desired++
		}
		stats.satisfaction += res.Session.Current.QoSImportance
		stats.cost += int64(res.Session.Cost())
		bed.Manager.Confirm(res.Session.ID)
		id := res.Session.ID
		eng.MustSchedule(2*time.Minute, func() { bed.Manager.Complete(id) })
	})
	eng.RunAll()
	return stats
}

func runE14(w io.Writer) error {
	// One client link and two servers, sized so the prime-time slot fits
	// exactly 3 concurrent TV-quality sessions; 9 users all want prime
	// time.
	const (
		users     = 9
		slotCap   = 3
		primeTime = time.Hour
		duration  = 30 * time.Minute
	)
	ranked, u := e14Offers()
	perSession := int64(ranked[0].Choices[0].Variant.NetworkQoS().AvgBitRate +
		ranked[0].Choices[1].Variant.NetworkQoS().AvgBitRate)

	fmt.Fprintf(w, "%d users request the %s prime-time slot; capacity fits %d concurrent sessions.\n",
		users, primeTime, slotCap)

	// Walk-in: everyone shows up at prime time; step 5 runs against live
	// resources, so the overflow is FAILEDTRYLATER.
	walkIn := 0
	{
		planner := e14Planner(perSession, slotCap)
		n := booking.NewNegotiator(planner)
		for i := 0; i < users; i++ {
			if _, err := n.Negotiate(ranked, u, booking.LinkResource("client-1"), primeTime, duration); err == nil {
				walkIn++
			}
		}
	}

	// Advance booking: the same users book ahead; when the requested slot
	// is full the negotiator offers the next free slot (the [Haf 96]
	// counter-offer in time rather than in quality).
	booked := 0
	var waits []time.Duration
	{
		planner := e14Planner(perSession, slotCap)
		n := booking.NewNegotiator(planner)
		for i := 0; i < users; i++ {
			for shift := time.Duration(0); shift <= 4*duration; shift += duration {
				res, err := n.Negotiate(ranked, u, booking.LinkResource("client-1"), primeTime+shift, duration)
				if err != nil {
					continue
				}
				booked++
				waits = append(waits, shift)
				_ = res
				break
			}
		}
	}
	var maxWait time.Duration
	for _, w := range waits {
		if w > maxWait {
			maxWait = w
		}
	}
	fmt.Fprintf(w, "walk-in at prime time:  %d/%d served, %d blocked (FAILEDTRYLATER)\n",
		walkIn, users, users-walkIn)
	fmt.Fprintf(w, "advance booking:        %d/%d served; overflow shifted to later slots (max shift %s),\n",
		booked, users, maxWait)
	fmt.Fprintln(w, "                        each with capacity guaranteed at negotiation time")
	if booked <= walkIn {
		return fmt.Errorf("advance booking served %d ≤ walk-in %d", booked, walkIn)
	}
	fmt.Fprintln(w, "expected shape: identical capacity, but future reservations convert blocking")
	fmt.Fprintln(w, "into bounded start-time shifts — the [Haf 96] motivation.")
	return nil
}

// e14Offers classifies a simple audio+video document for the booking study.
func e14Offers() ([]offer.Ranked, profile.UserProfile) {
	// A single-variant document so the booking study measures time
	// shifting, not quality degradation: exactly one feasible offer.
	dur := 30 * time.Minute
	video := media.Monomedia{ID: "video", Kind: qos.Video, Duration: dur,
		Variants: []media.Variant{media.VideoVariant("video-v1", "server-1", media.MPEG1,
			qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}, dur)}}
	audio := media.Monomedia{ID: "audio", Kind: qos.Audio, Duration: dur,
		Variants: []media.Variant{media.AudioVariant("audio-v1", "server-2", media.MPEG1Audio,
			qos.AudioQoS{Grade: qos.CDQuality}, dur)}}
	doc := media.Document{ID: "doc-booking", Title: "Prime time", Monomedia: []media.Monomedia{video, audio}}
	mach := client.Workstation("c1", "client-1")
	offers, err := offer.Enumerate(doc, mach, cost.DefaultPricing(), offer.EnumerateOptions{})
	if err != nil {
		panic(err)
	}
	u := e11Profile()
	return offer.Classify(offers, u), u
}

func e14Planner(perSession int64, slots int) *booking.Planner {
	p := booking.NewPlanner()
	cap := perSession * int64(slots)
	p.AddResource(booking.ServerResource("server-1"), booking.MustCalendar(cap))
	p.AddResource(booking.ServerResource("server-2"), booking.MustCalendar(cap))
	p.AddResource(booking.LinkResource("client-1"), booking.MustCalendar(cap))
	return p
}

func init() {
	register(Experiment{
		ID:    "E15",
		Title: "Multi-domain negotiation: broker across providers vs. single provider",
		Paper: "[Haf 95b] extension (hierarchical negotiation)",
		Run:   runE15,
	})
}

func runE15(w io.Writer) error {
	fmt.Fprintln(w, "60 back-to-back TV-quality requests against 1, 2 or 3 federated providers;")
	fmt.Fprintln(w, "the broker negotiates in every domain and keeps the best reservation.")
	for _, domains := range []int{1, 2, 3} {
		accepted := runE15One(domains)
		fmt.Fprintf(w, "%d provider(s): %2d/60 accepted\n", domains, accepted)
	}
	fmt.Fprintln(w, "expected shape: federation multiplies the admissible load — the hierarchical")
	fmt.Fprintln(w, "negotiation of [Haf 95b] lifted onto the HPDC procedure.")
	return nil
}

func runE15One(domains int) int {
	var ds []*domain.Domain
	var beds []*testbed.Bed
	for i := 0; i < domains; i++ {
		bed := testbed.MustNew(testbed.Spec{
			Clients:        4,
			Servers:        2,
			AccessCapacity: 25 * qos.MBitPerSecond,
		})
		bed.AddNewsArticle("news-1", "Article", 2*time.Minute)
		ds = append(ds, &domain.Domain{
			Name:     fmt.Sprintf("provider-%d", i+1),
			Manager:  bed.Manager,
			Registry: bed.Registry,
		})
		beds = append(beds, bed)
	}
	broker := domain.NewBroker(ds...)
	u := e8Profile()
	accepted := 0
	for i := 0; i < 60; i++ {
		mach := beds[0].Client(i%4 + 1)
		res, err := broker.Negotiate(mach, "news-1", u)
		if err != nil {
			panic(err)
		}
		if res.Status.Reserved() {
			// Sessions stay live (back-to-back load, no completion).
			accepted++
		}
	}
	return accepted
}
