package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"qosneg"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// Every input of a run comes from the seed through the benchmark's own PCG
// streams, never through internal/workload or internal/sim: a change to those
// packages cannot change what the benchmark asks of the system.

// PCG stream selectors: one independent stream per purpose, so lengthening
// one (more warm-up, say) leaves the others' draws untouched.
const (
	streamRequests = iota + 1
	streamWarmup
	streamCatalog
	streamArrivals
	streamWrites
)

// newRand opens the PCG stream for one purpose in one epoch.
func newRand(seed uint64, stream, epoch int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)|uint64(epoch)<<8))
}

// request is one generated session request, as indices into the inputs.
type request struct {
	client, doc, profile int32
	// lifecycle selects negotiate→confirm→session-info→complete over
	// negotiate→reject (wire-daemon only).
	lifecycle bool
	// expect is the status the reference manager returns for this request's
	// class; the run fails the op when the system answers anything else.
	expect core.NegotiationStatus
}

// write is one catalog or tariff mutation of cold-catalog, applied before
// the op with index at.
type write struct {
	at int
	// revised, when set, is the document to re-register with its new
	// content; otherwise the tariff swaps to pricings[pricing].
	revised *media.Document
	pricing int
}

// inputs is everything a run reads that depends on the seed.
type inputs struct {
	clients, servers int
	// articles > 0 registers that many standard news articles (news-1..N);
	// otherwise docs is the catalog.
	articles int
	docs     []media.Document
	// ids lists the catalog's document ids, indexed by request.doc.
	ids      []media.DocumentID
	profiles []profile.UserProfile
	pricings []cost.Pricing
	// warm is the warm-up stream every epoch's set-up runs; epochs holds
	// each epoch's measured stream.
	warm   []request
	epochs []*stream
}

// stream is one epoch's measured request stream. Every epoch starts from
// the initial catalog on a fresh system.
type stream struct {
	reqs   []request
	writes []write
	// due holds the open loop's scheduled arrival offsets, one per request.
	due []time.Duration
}

func articleID(i int) media.DocumentID { return media.DocumentID(fmt.Sprintf("news-%d", i+1)) }

// section5Profile is the paper's Section 5 example request with default
// importances: the E6 request.
func section5Profile() profile.UserProfile {
	return profile.UserProfile{
		Name: "section5",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Importance: profile.DefaultImportance(),
	}
}

// francophoneProfile is tv-quality for a reader who wants French captions:
// a document without a French text variant can only be offered degraded.
func francophoneProfile() profile.UserProfile {
	u := profile.DefaultProfiles()[0].Clone()
	u.Name = "francophone"
	u.Desired.Text = &qos.TextQoS{Language: qos.French}
	u.Worst.Text = &qos.TextQoS{Language: qos.French}
	return u
}

// altPricing is the second tariff cold-catalog swaps in: dearer network
// classes and a higher guaranteed-service markup, so prices (and with them
// some statuses) really change across a SetPricing.
func altPricing() cost.Pricing {
	p := cost.DefaultPricing()
	var classes []cost.Class
	for _, c := range p.Network.Classes() {
		classes = append(classes, cost.Class{MinRate: c.MinRate, Price: c.Price + c.Price/4})
	}
	p.Network = cost.MustTable(classes...)
	p.GuaranteedMarkupPercent = 40
	return p
}

// Cold-catalog documents draw their content from a fixed family of
// templates: 3 monomedia with 2–6 variants each (products 8–216). The seed
// decides which document holds which popularity rank, and the revisions;
// the content of template t never changes, so the expected status of every
// request is a table lookup.
const (
	coldTemplates = 125
	coldDocs      = 4096
	coldZipfS     = 0.6
	coldWriteGap  = 200
)

var (
	videoLadder = []qos.VideoQoS{
		{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
		{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution},
		{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution},
		{Color: qos.Grey, FrameRate: 15, Resolution: qos.TVResolution},
		{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution},
		{Color: qos.BlackWhite, FrameRate: 10, Resolution: 320},
		{Color: qos.SuperColor, FrameRate: 30, Resolution: 720},
	}
	audioLadder = []qos.AudioQoS{
		{Grade: qos.CDQuality, Language: qos.English},
		{Grade: qos.TelephoneQuality, Language: qos.English},
		{Grade: qos.CDQuality, Language: qos.French},
		{Grade: qos.TelephoneQuality, Language: qos.French},
		{Grade: qos.CDQuality, Language: qos.English},
		{Grade: qos.TelephoneQuality, Language: qos.English},
	}
	textLadder = []qos.Language{qos.English, qos.French, qos.English, qos.French, qos.English, qos.French}
)

// templateDoc builds document id with the content of template t.
func templateDoc(id media.DocumentID, t int, servers []media.ServerID) media.Document {
	nv, na, nt := 2+t%5, 2+(t/5)%5, 2+(t/25)%5
	dur := time.Duration(60+30*(t%4)) * time.Second
	server := func(i int) media.ServerID { return servers[(t+i)%len(servers)] }
	doc := media.Document{
		ID:           id,
		Title:        fmt.Sprintf("Synthetic document (template %d)", t),
		CopyrightFee: int64(100 * (t % 6)),
	}
	video := media.Monomedia{ID: "video", Kind: qos.Video, Duration: dur}
	// Odd templates start one rung down the ladder (no colour-25 variant)
	// and every seventh carries the super-colour master.
	first := t % 2
	if t%7 == 0 {
		video.Variants = append(video.Variants, media.VideoVariant("video-master", server(0), media.MPEG1, videoLadder[6], dur))
		nv--
	}
	for j := 0; j < nv; j++ {
		q := videoLadder[(first+j)%6]
		video.Variants = append(video.Variants, media.VideoVariant(
			media.VariantID(fmt.Sprintf("video-v%d", j+1)), server(j), media.MPEG1, q, dur))
	}
	audio := media.Monomedia{ID: "audio", Kind: qos.Audio, Duration: dur}
	for j := 0; j < na; j++ {
		audio.Variants = append(audio.Variants, media.AudioVariant(
			media.VariantID(fmt.Sprintf("audio-v%d", j+1)), server(j+1), media.MPEG1Audio, audioLadder[j], dur))
	}
	text := media.Monomedia{ID: "caption", Kind: qos.Text}
	// Every third template is English-only: francophone requests get a
	// degraded offer there.
	for j := 0; j < nt; j++ {
		lang := textLadder[j]
		if t%3 == 0 {
			lang = qos.English
		}
		text.Variants = append(text.Variants, media.TextVariant(
			media.VariantID(fmt.Sprintf("caption-v%d", j+1)), server(j+2), lang, 4096))
	}
	doc.Monomedia = []media.Monomedia{video, audio, text}
	doc.Temporal = []media.TemporalConstraint{{A: "video", B: "audio", Relation: media.Parallel, Tolerance: 80 * time.Millisecond}}
	return doc
}

func serverIDs(n int) []media.ServerID {
	out := make([]media.ServerID, n)
	for i := range out {
		out[i] = media.ServerID(fmt.Sprintf("server-%d", i+1))
	}
	return out
}

func coldDocID(i int) media.DocumentID { return media.DocumentID(fmt.Sprintf("doc-%04d", i)) }

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s by inverting a precomputed
// CDF; math/rand/v2's Zipf needs s > 1 and cold-catalog wants a flatter 0.6.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(r *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// expectations asks a reference system — cache off, unsharded, no telemetry,
// no admission, in-process — for the status of every request class:
// table[pricing][doc][profile]. Each negotiation is wound down before the
// next, so classes do not see each other's reservations.
func expectations(servers int, docs []media.Document, articles int, pricings []cost.Pricing, profiles []profile.UserProfile) ([][][]core.NegotiationStatus, error) {
	ref, err := qosneg.New(qosneg.WithClients(1), qosneg.WithServers(servers), qosneg.WithOfferCache(-1))
	if err != nil {
		return nil, err
	}
	var ids []media.DocumentID
	for i := 0; i < articles; i++ {
		if _, err := ref.AddNewsArticle(articleID(i), "reference", 2*time.Minute); err != nil {
			return nil, err
		}
		ids = append(ids, articleID(i))
	}
	for _, d := range docs {
		if err := ref.AddDocument(d); err != nil {
			return nil, err
		}
		ids = append(ids, d.ID)
	}
	mach, err := ref.Client("client-1")
	if err != nil {
		return nil, err
	}
	table := make([][][]core.NegotiationStatus, len(pricings))
	for p, pricing := range pricings {
		ref.Manager.SetPricing(pricing)
		table[p] = make([][]core.NegotiationStatus, len(ids))
		for d, id := range ids {
			table[p][d] = make([]core.NegotiationStatus, len(profiles))
			for u, prof := range profiles {
				res, err := ref.NegotiateWith(context.Background(), mach, id, prof)
				if err != nil {
					return nil, fmt.Errorf("reference negotiation (%s, %s): %w", id, prof.Name, err)
				}
				if res.Session != nil {
					if err := ref.Manager.Reject(res.Session.ID); err != nil {
						return nil, err
					}
				}
				table[p][d][u] = res.Status
			}
		}
	}
	return table, nil
}

// generate derives a workload's inputs from the seed: epochs measured
// streams of ops requests each and one warm-up stream of warm requests.
func generate(w *workloadDef, seed uint64, epochs, ops, warm int) (*inputs, error) {
	in := &inputs{pricings: []cost.Pricing{cost.DefaultPricing()}}
	switch w.name {
	case "hot-inproc":
		in.clients, in.servers, in.articles = 1, 2, 1
		in.profiles = []profile.UserProfile{section5Profile()}
	case "cold-catalog":
		in.clients, in.servers = 4, 3
		in.profiles = append(profile.DefaultProfiles(), section5Profile(), francophoneProfile())
		in.pricings = append(in.pricings, altPricing())
	case "wire-daemon", "overload-openloop":
		in.clients, in.servers, in.articles = 4, 3, 6
		in.profiles = profile.DefaultProfiles()
	case "adapt-storm":
		in.clients, in.servers, in.articles = stormClients, 3, 6
		in.profiles = []profile.UserProfile{section5Profile()}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	if w.name == "cold-catalog" {
		return in, generateCold(in, seed, epochs, ops, warm)
	}
	for i := 0; i < in.articles; i++ {
		in.ids = append(in.ids, articleID(i))
	}
	// All news articles share one content, so one reference document
	// stands for every class of these workloads.
	table, err := expectations(in.servers, nil, 1, in.pricings, in.profiles)
	if err != nil {
		return nil, err
	}
	draw := func(r *rand.Rand, n int) []request {
		out := make([]request, n)
		for i := range out {
			q := request{
				client:  int32(r.IntN(in.clients)),
				doc:     int32(r.IntN(in.articles)),
				profile: int32(r.IntN(len(in.profiles))),
			}
			q.lifecycle = w.name == "wire-daemon" && r.Float64() < 0.7
			q.expect = table[0][0][q.profile]
			out[i] = q
		}
		return out
	}
	in.warm = draw(newRand(seed, streamWarmup, 0), warm)
	for e := 0; e < epochs; e++ {
		st := &stream{reqs: draw(newRand(seed, streamRequests, e), ops)}
		if w.name == "overload-openloop" {
			r := newRand(seed, streamArrivals, e)
			st.due = make([]time.Duration, ops)
			var at float64
			for i := range st.due {
				at += r.ExpFloat64() / overloadRate
				st.due[i] = time.Duration(at * float64(time.Second))
			}
		}
		in.epochs = append(in.epochs, st)
	}
	return in, nil
}

func generateCold(in *inputs, seed uint64, epochs, ops, warm int) error {
	servers := serverIDs(in.servers)
	tmpls := make([]media.Document, coldTemplates)
	for t := range tmpls {
		tmpls[t] = templateDoc(media.DocumentID(fmt.Sprintf("template-%d", t)), t, servers)
	}
	table, err := expectations(in.servers, tmpls, 0, in.pricings, in.profiles)
	if err != nil {
		return err
	}
	// byRank[k] is the document with popularity rank k, and it carries
	// template k mod coldTemplates: the seed decides which documents are
	// popular, not what popular documents look like. Template costs differ
	// by an order of magnitude (products 8–216) and the first few ranks
	// carry percents of the traffic each, so a seeded assignment moved
	// allocs_per_op by ±2.5% from seed to seed.
	rc := newRand(seed, streamCatalog, 0)
	byRank := rc.Perm(coldDocs)
	initial := make([]int, coldDocs)
	for k, d := range byRank {
		initial[d] = k % coldTemplates
	}
	in.docs = make([]media.Document, coldDocs)
	for i := range in.docs {
		in.docs[i] = templateDoc(coldDocID(i), initial[i], servers)
		in.ids = append(in.ids, in.docs[i].ID)
	}
	z := newZipf(coldDocs, coldZipfS)

	draw := func(r *rand.Rand) request {
		return request{
			client:  int32(r.IntN(in.clients)),
			doc:     int32(byRank[z.draw(r)]),
			profile: int32(r.IntN(len(in.profiles))),
		}
	}
	rw := newRand(seed, streamWarmup, 0)
	in.warm = make([]request, warm)
	for i := range in.warm {
		q := draw(rw)
		q.expect = table[0][initial[q.doc]][q.profile]
		in.warm[i] = q
	}
	// One write per coldWriteGap ops, alternating a revised document and a
	// tariff swap; expected statuses follow the catalog state each request
	// will see, starting every epoch from the initial catalog and tariff.
	for e := 0; e < epochs; e++ {
		rr, rwr := newRand(seed, streamRequests, e), newRand(seed, streamWrites, e)
		st := &stream{reqs: make([]request, ops)}
		tmplOf := append([]int(nil), initial...)
		pricing, nwrites := 0, 0
		for i := range st.reqs {
			if i > 0 && i%coldWriteGap == 0 {
				wr := write{at: i}
				if nwrites%2 == 0 {
					d := byRank[z.draw(rwr)]
					tmplOf[d] = (tmplOf[d] + 1) % coldTemplates
					revised := templateDoc(coldDocID(d), tmplOf[d], servers)
					wr.revised = &revised
				} else {
					pricing = 1 - pricing
					wr.pricing = pricing
				}
				st.writes = append(st.writes, wr)
				nwrites++
			}
			q := draw(rr)
			q.expect = table[pricing][tmplOf[q.doc]][q.profile]
			st.reqs[i] = q
		}
		in.epochs = append(in.epochs, st)
	}
	return nil
}
