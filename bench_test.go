// Benchmarks regenerating the performance-relevant half of every experiment
// in EXPERIMENTS.md: one benchmark per paper artefact (E1–E12), so
// `go test -bench=. -benchmem` reproduces the timing/throughput columns.
// The correctness half of each artefact lives in the package tests and in
// `go run ./cmd/nodsim -exp all`.
package qosneg

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosneg/internal/adaptation"
	"qosneg/internal/booking"
	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/domain"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/protocol"
	"qosneg/internal/qos"
	"qosneg/internal/session"
	"qosneg/internal/sim"
	"qosneg/internal/telemetry"
	"qosneg/internal/workload"
)

// benchProfile is the Section 5 example request with default importances.
func benchProfile() profile.UserProfile {
	return profile.UserProfile{
		Name: "bench",
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

func benchSystem(b *testing.B, clients, servers int) (*System, media.Document) {
	b.Helper()
	sys, err := New(WithClients(clients), WithServers(servers))
	if err != nil {
		b.Fatal(err)
	}
	doc, err := sys.AddNewsArticle("news-1", "Bench article", 2*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	return sys, doc
}

// BenchmarkE1Classification measures classifying the Section 5.1 offers.
func BenchmarkE1Classification(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	mach, _ := sys.Client("client-1")
	offers, err := offer.Enumerate(doc, mach, sys.Pricing, offer.EnumerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	u := benchProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer.Classify(offers, u)
	}
}

// BenchmarkE2SNS measures the static-negotiation-status computation.
func BenchmarkE2SNS(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	mach, _ := sys.Client("client-1")
	offers, _ := offer.Enumerate(doc, mach, sys.Pricing, offer.EnumerateOptions{})
	u := benchProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range offers {
			offer.SNS(o, u)
		}
	}
}

// BenchmarkE3OIF measures the overall-importance-factor computation.
func BenchmarkE3OIF(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	mach, _ := sys.Client("client-1")
	offers, _ := offer.Enumerate(doc, mach, sys.Pricing, offer.EnumerateOptions{})
	u := benchProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range offers {
			offer.OIF(o, u)
		}
	}
}

// BenchmarkE4Mapping measures the Section 6 user-QoS → network-QoS mapping.
func BenchmarkE4Mapping(b *testing.B) {
	blocks := qos.BlockStats{MaxBlockBytes: 12000, AvgBlockBytes: 6000}
	s := qos.VideoSetting(qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qos.MapSetting(s, blocks)
	}
}

// BenchmarkE5Cost measures the Section 7 CostDoc computation.
func BenchmarkE5Cost(b *testing.B) {
	p := cost.DefaultPricing()
	items := []cost.Item{
		{Rate: 2 * qos.MBitPerSecond, Duration: 2 * time.Minute},
		{Rate: 1411 * qos.KBitPerSecond, Duration: 2 * time.Minute},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Document(cost.Cents(50), cost.BestEffort, items)
	}
}

// BenchmarkE6Negotiate measures the full six-step negotiation procedure
// (enumerate, classify, commit, rollback via Reject).
func BenchmarkE6Negotiate(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	u := benchProfile()
	mach, _ := sys.Client("client-1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
		if err != nil {
			b.Fatal(err)
		}
		if res.Session != nil {
			if err := sys.Manager.Reject(res.Session.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE6NegotiateUncached is the cold path: the candidate-set cache is
// disabled, so every request re-enumerates, re-maps and re-prices. This is
// the number to hold steady across PRs — cache wins must not be bought with
// a slower miss path.
func BenchmarkE6NegotiateUncached(b *testing.B) {
	sys, err := New(WithClients(1), WithServers(2), WithOfferCache(-1))
	if err != nil {
		b.Fatal(err)
	}
	doc, err := sys.AddNewsArticle("news-1", "Bench article", 2*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	u := benchProfile()
	mach, _ := sys.Client("client-1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
		if err != nil {
			b.Fatal(err)
		}
		if res.Session != nil {
			if err := sys.Manager.Reject(res.Session.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE6NegotiateCached is the hot path: the candidate-set cache is
// warmed before the timer starts, so every measured negotiation reuses the
// memoized static-negotiation result and only classifies and commits.
func BenchmarkE6NegotiateCached(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	u := benchProfile()
	mach, _ := sys.Client("client-1")
	// Warm the cache: the first round is the miss that populates it.
	res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
	if err != nil {
		b.Fatal(err)
	}
	if res.Session != nil {
		sys.Manager.Reject(res.Session.ID)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
		if err != nil {
			b.Fatal(err)
		}
		if res.Session != nil {
			if err := sys.Manager.Reject(res.Session.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if st := sys.Manager.Stats(); st.OfferCacheHits < st.Requests-2 {
		b.Fatalf("measured loop was not cache-hot: %d hits over %d requests", st.OfferCacheHits, st.Requests)
	}
}

// BenchmarkHotDocumentThroughput is the production shape the cache targets:
// several clients hammering the same popular article concurrently. The
// cached and uncached runs differ only in WithOfferCache.
func BenchmarkHotDocumentThroughput(b *testing.B) {
	for _, mode := range []struct {
		name  string
		cache int
	}{{"cached", 0}, {"uncached", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			const clients = 4
			sys, err := New(WithClients(clients), WithServers(2), WithOfferCache(mode.cache))
			if err != nil {
				b.Fatal(err)
			}
			doc, err := sys.AddNewsArticle("news-1", "Bench article", 2*time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			u := benchProfile()
			machines := make([]client.Machine, clients)
			for i := range machines {
				machines[i], _ = sys.Client(fmt.Sprintf("client-%d", i+1))
			}
			var next atomic.Uint64
			b.SetParallelism(clients)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mach := machines[int(next.Add(1)-1)%clients]
				for pb.Next() {
					res, err := sys.Manager.NegotiateContext(context.Background(), mach, doc.ID, u)
					if err != nil {
						b.Error(err)
						return
					}
					if res.Session != nil {
						if err := sys.Manager.Reject(res.Session.ID); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
		})
	}
}

// BenchmarkE6NegotiateTelemetry is BenchmarkE6Negotiate with the telemetry
// subsystem live — a metrics registry recording outcome counters and
// per-step latency histograms, plus a ring tracer capturing spans. Its
// ns/op against the plain E6 run is the observability overhead of an
// instrumented daemon, which must stay within a few percent.
func BenchmarkE6NegotiateTelemetry(b *testing.B) {
	reg := telemetry.NewRegistry()
	sys, err := New(WithClients(1), WithServers(2),
		WithMetrics(reg), WithTracer(telemetry.NewRing(256)))
	if err != nil {
		b.Fatal(err)
	}
	doc, err := sys.AddNewsArticle("news-1", "Bench article", 2*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	u := benchProfile()
	mach, _ := sys.Client("client-1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
		if err != nil {
			b.Fatal(err)
		}
		if res.Session != nil {
			if err := sys.Manager.Reject(res.Session.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNegotiateParallel measures negotiate+reject rounds issued
// concurrently by independent clients against shared servers: the
// production shape of the workload, where the manager's session-table lock
// must not serialize unrelated negotiations. clients=1 is the serial
// baseline; higher counts interleave whole negotiations.
func BenchmarkNegotiateParallel(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			sys, doc := benchSystem(b, clients, 2)
			u := benchProfile()
			machines := make([]client.Machine, clients)
			for i := range machines {
				machines[i], _ = sys.Client(fmt.Sprintf("client-%d", i+1))
			}
			var next atomic.Uint64
			b.SetParallelism(clients)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mach := machines[int(next.Add(1)-1)%clients]
				for pb.Next() {
					res, err := sys.Manager.NegotiateContext(context.Background(), mach, doc.ID, u)
					if err != nil {
						b.Error(err)
						return
					}
					if res.Session != nil {
						if err := sys.Manager.Reject(res.Session.ID); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
		})
	}
}

// BenchmarkShardedNegotiate measures concurrent negotiate+reject rounds
// against a sharded manager fleet at 1, 2, 4 and 8 shards, with enough
// client machines to keep every shard busy. shards=1 is the default system
// (what BenchmarkNegotiateParallel/clients=8 also measures); higher counts
// measure how much manager-side serialization — session table, breaker
// state, offer cache — sharding removes. Throughput scales with cores: on a
// multi-core host 4 shards should clear well over 2.5× the 1-shard rate; a
// single-core runner can only show the routing overhead staying flat.
func BenchmarkShardedNegotiate(b *testing.B) {
	const clients = 8
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sys, err := New(WithClients(clients), WithServers(2), WithShards(shards))
			if err != nil {
				b.Fatal(err)
			}
			doc, err := sys.AddNewsArticle("news-1", "Bench article", 2*time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			u := benchProfile()
			machines := make([]client.Machine, clients)
			for i := range machines {
				machines[i], _ = sys.Client(fmt.Sprintf("client-%d", i+1))
			}
			var next atomic.Uint64
			b.SetParallelism(clients)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mach := machines[int(next.Add(1)-1)%clients]
				for pb.Next() {
					res, err := sys.Manager.NegotiateContext(context.Background(), mach, doc.ID, u)
					if err != nil {
						b.Error(err)
						return
					}
					if res.Session != nil {
						if err := sys.Manager.Reject(res.Session.ID); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
		})
	}
}

// BenchmarkE7Adaptation measures one adaptation transition: degrade the
// serving machine, switch the session, recover, switch back.
func BenchmarkE7Adaptation(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	u := benchProfile()
	mach, _ := sys.Client("client-1")
	res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
	if err != nil || !res.Status.Reserved() {
		b.Fatalf("negotiate: %v %v", res.Status, err)
	}
	if err := sys.Manager.Confirm(res.Session.ID); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := res.Session.Current.Choices[0].Variant.Server
		sys.Servers[victim].SetDegradation(0.99)
		if _, err := sys.Manager.Adapt(res.Session.ID); err != nil {
			b.Fatal(err)
		}
		sys.Servers[victim].SetDegradation(0)
	}
}

// BenchmarkE8Blocking measures one full load-study round: 120 Poisson
// arrivals with playout and completion on the simulation clock.
func BenchmarkE8Blocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := New(WithClients(4), WithServers(3), WithAccessCapacity(25*qos.MBitPerSecond))
		if err != nil {
			b.Fatal(err)
		}
		var ids []media.DocumentID
		var machines []client.Machine
		for d := 1; d <= 6; d++ {
			id := media.DocumentID(fmt.Sprintf("news-%d", d))
			sys.AddNewsArticle(id, "A", 2*time.Minute)
			ids = append(ids, id)
		}
		for c := 1; c <= 4; c++ {
			m, _ := sys.Client(fmt.Sprintf("client-%d", c))
			machines = append(machines, m)
		}
		gen, err := workload.NewGenerator(workload.Spec{
			Seed: 1996, MeanInterArrival: 5 * time.Second,
			Documents: ids, Clients: machines,
			Profiles: []profile.UserProfile{benchProfile()},
		})
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.NewEngine()
		gen.Drive(eng, 120, func(req workload.Request) {
			res, err := sys.Manager.NegotiateContext(context.Background(), req.Client, req.Document, req.Profile)
			if err != nil || !res.Status.Reserved() {
				return
			}
			sys.Manager.Confirm(res.Session.ID)
			id := res.Session.ID
			eng.MustSchedule(2*time.Minute, func() { sys.Manager.Complete(id) })
		})
		eng.RunAll()
	}
}

// BenchmarkE9Enumerate measures offer enumeration + classification as the
// variant product grows (the E9 scaling rows).
func BenchmarkE9Enumerate(b *testing.B) {
	mach := client.Workstation("c1", "n1")
	pricing := cost.DefaultPricing()
	u := benchProfile()
	for _, variants := range []int{2, 4, 8, 16} {
		doc := synthBenchDoc(3, variants)
		b.Run(fmt.Sprintf("media=3/variants=%d", variants), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				offers, err := offer.Enumerate(doc, mach, pricing, offer.EnumerateOptions{})
				if err != nil {
					b.Fatal(err)
				}
				offer.Classify(offers, u)
			}
		})
	}
}

// synthBenchDoc mirrors the experiment harness's synthetic document.
func synthBenchDoc(mediaCount, variants int) media.Document {
	doc := media.Document{ID: "synthetic", Title: "Synthetic"}
	dur := time.Minute
	for m := 0; m < mediaCount; m++ {
		switch m % 3 {
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
					qos.AudioQoS{Grade: grade, Language: qos.Language(fmt.Sprintf("l%d", v))}, dur))
			}
			doc.Monomedia = append(doc.Monomedia, mono)
		default:
			mono := media.Monomedia{ID: media.MonomediaID(fmt.Sprintf("text-%d", m)), Kind: qos.Text}
			for v := 0; v < variants; v++ {
				mono.Variants = append(mono.Variants, media.TextVariant(
					media.VariantID(fmt.Sprintf("t%d-%d", m, v)), "server-1",
					qos.Language(fmt.Sprintf("l%d", v)), 1024))
			}
			doc.Monomedia = append(doc.Monomedia, mono)
		}
	}
	return doc
}

// BenchmarkE10Confirm measures the reserve→confirm→complete session
// lifecycle.
func BenchmarkE10Confirm(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	u := benchProfile()
	mach, _ := sys.Client("client-1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
		if err != nil || !res.Status.Reserved() {
			b.Fatalf("negotiate: %v %v", res.Status, err)
		}
		if err := sys.Manager.Confirm(res.Session.ID); err != nil {
			b.Fatal(err)
		}
		if err := sys.Manager.Complete(res.Session.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Atomic measures whole-document negotiation against the same
// document split per monomedia (the atomicity ablation's fast path).
func BenchmarkE11Atomic(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	u := benchProfile()
	mach, _ := sys.Client("client-1")
	b.Run("document-atomic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
			if err != nil {
				b.Fatal(err)
			}
			if res.Session != nil {
				sys.Manager.Reject(res.Session.ID)
			}
		}
	})
	b.Run("per-monomedia", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, mono := range doc.Monomedia {
				sub := media.Document{ID: doc.ID, Monomedia: []media.Monomedia{mono}}
				offers, err := offer.Enumerate(sub, mach, sys.Pricing, offer.EnumerateOptions{})
				if err != nil {
					b.Fatal(err)
				}
				offer.Classify(offers, u)
			}
		}
	})
}

// BenchmarkE12CostTables measures throughput-class lookup, the hot path of
// the cost model under load.
func BenchmarkE12CostTables(b *testing.B) {
	p := cost.DefaultPricing()
	rates := []qos.BitRate{64_000, 700_000, 2_000_000, 5_000_000, 20_000_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Network.PricePerSecond(rates[i%len(rates)])
	}
}

// BenchmarkProtocolRoundTrip measures a negotiate+reject round over a TCP
// loopback connection (the distributed deployment's unit of work).
func BenchmarkProtocolRoundTrip(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := protocol.NewServer(sys.Manager, sys.Registry)
	go srv.Serve(l)
	defer func() {
		l.Close()
		srv.Close()
	}()
	c, err := protocol.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	mach, _ := sys.Client("client-1")
	u := benchProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Negotiate(context.Background(), mach, doc.ID, u)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status.Reserved() {
			if err := c.Reject(context.Background(), res.Session); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWireLifecycle is the JSON-vs-binary figure at one caller: a
// session's whole wire lifecycle — negotiate, confirm, session — over
// loopback, once per codec, then completed in-process as the daemon's
// playout driver would. `make profile` takes its wire profiles from it.
func BenchmarkWireLifecycle(b *testing.B) {
	for _, tc := range []struct{ label, codec string }{
		{"json", protocol.CodecJSON},
		{"binary", protocol.CodecBinary},
	} {
		b.Run("codec="+tc.label, func(b *testing.B) {
			sys, doc := benchSystem(b, 1, 2)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := protocol.NewServer(sys.Manager, sys.Registry)
			go srv.Serve(l)
			defer func() {
				l.Close()
				srv.Close()
			}()
			c, err := protocol.Dial(l.Addr().String(), protocol.WithWire(protocol.WireOptions{Codecs: []string{tc.codec}}))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			mach, _ := sys.Client("client-1")
			u := benchProfile()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Negotiate(ctx, mach, doc.ID, u)
				if err != nil || !res.Status.Reserved() {
					b.Fatalf("negotiate: %v %v", res.Status, err)
				}
				if err := c.Confirm(ctx, res.Session); err != nil {
					b.Fatal(err)
				}
				if info, err := c.Session(ctx, res.Session); err != nil || info.State != core.Playing.String() {
					b.Fatalf("session: %+v %v", info, err)
				}
				if err := sys.Manager.Complete(res.Session); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireRPC measures wire-protocol RPC throughput over a single
// client (hence a single TCP connection) shared by 1, 64 and 1000
// concurrent callers, once per codec. The JSON line codec serializes
// callers on the connection; the binary codec multiplexes them onto
// streams, which is the redesign's headline win at high concurrency. The
// RPC is the lightest one (list-sessions on an idle system) so the numbers
// measure transport overhead, not handler cost; p99 latency is reported
// alongside ns/op.
func BenchmarkWireRPC(b *testing.B) {
	for _, tc := range []struct{ label, codec string }{
		{"json", protocol.CodecJSON},
		{"binary", protocol.CodecBinary},
	} {
		for _, conc := range []int{1, 64, 1000} {
			b.Run(fmt.Sprintf("codec=%s/clients=%d", tc.label, conc), func(b *testing.B) {
				sys, _ := benchSystem(b, 1, 2)
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				srv := protocol.NewServer(sys.Manager, sys.Registry,
					protocol.WithServerWire(protocol.WireOptions{MaxStreams: 1024}))
				go srv.Serve(l)
				defer func() {
					l.Close()
					srv.Close()
				}()
				c, err := protocol.Dial(l.Addr().String(), protocol.WithWire(protocol.WireOptions{
					Codecs:     []string{tc.codec},
					MaxStreams: 1024,
				}))
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if _, err := c.ListSessions(context.Background()); err != nil {
					b.Fatal(err)
				}
				lat := make([][]time.Duration, conc)
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < conc; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						var samples []time.Duration
						for next.Add(1) <= int64(b.N) {
							t0 := time.Now()
							if _, err := c.ListSessions(context.Background()); err != nil {
								b.Error(err)
								return
							}
							samples = append(samples, time.Since(t0))
						}
						lat[w] = samples
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				var all []time.Duration
				for _, s := range lat {
					all = append(all, s...)
				}
				if len(all) > 0 {
					sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
					idx := len(all) * 99 / 100
					if idx >= len(all) {
						idx = len(all) - 1
					}
					b.ReportMetric(float64(all[idx].Nanoseconds())/1e6, "p99-ms")
				}
			})
		}
	}
}

// BenchmarkPlayout measures a full simulated playout with the adaptation
// monitor attached (virtual minutes per wall-clock second).
func BenchmarkPlayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, doc := benchSystem(b, 1, 2)
		u := benchProfile()
		mach, _ := sys.Client("client-1")
		res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
		if err != nil || !res.Status.Reserved() {
			b.Fatalf("negotiate: %v %v", res.Status, err)
		}
		eng := sim.NewEngine()
		sys.Monitor().Attach(eng, 5*time.Second, func(adaptation.Report) {})
		var out session.Outcome
		if err := sys.Player(eng).Play(res.Session, doc, func(o session.Outcome) { out = o }); err != nil {
			b.Fatal(err)
		}
		eng.Run(10 * time.Minute)
		if out.State != core.Completed {
			b.Fatalf("playout %v", out.State)
		}
	}
}

// BenchmarkCMFSAdmission measures the disk-round admission test.
func BenchmarkCMFSAdmission(b *testing.B) {
	srv := cmfs.MustServer("s1", cmfs.DefaultConfig())
	n := qos.NetworkQoS{MaxBitRate: 4 * qos.MBitPerSecond, AvgBitRate: 2 * qos.MBitPerSecond}
	for i := 0; i < 10; i++ {
		srv.Reserve(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Admit(n)
	}
}

// BenchmarkBookingReserve measures the future-reservation commitment (E14):
// an atomic three-resource booking against calendars holding many live
// bookings.
func BenchmarkBookingReserve(b *testing.B) {
	p := booking.NewPlanner()
	p.AddResource("server:server-1", booking.MustCalendar(1<<40))
	p.AddResource("server:server-2", booking.MustCalendar(1<<40))
	p.AddResource("link:client-1", booking.MustCalendar(1<<40))
	demands := []booking.Demand{
		{Resource: "server:server-1", Amount: 2_000_000},
		{Resource: "server:server-2", Amount: 1_400_000},
		{Resource: "link:client-1", Amount: 3_400_000},
	}
	// Pre-load the calendars with 256 staggered bookings.
	for i := 0; i < 256; i++ {
		start := time.Duration(i) * time.Minute
		if _, err := p.Reserve(start, start+30*time.Minute, demands); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Duration(i%256) * time.Minute
		plan, err := p.Reserve(start, start+30*time.Minute, demands)
		if err != nil {
			b.Fatal(err)
		}
		plan.Cancel()
	}
}

// BenchmarkE13Classifiers compares the classifier implementations on the
// same ranked offer set (the E13 ablation's inner loop).
func BenchmarkE13Classifiers(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	mach, _ := sys.Client("client-1")
	offers, err := offer.Enumerate(doc, mach, sys.Pricing, offer.EnumerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	u := benchProfile()
	base := offer.Rank(offers, u)
	for _, cl := range []offer.Orderer{offer.SNSPrimary{}, offer.OIFOnly{}, offer.CostOnly{}, offer.QoSOnly{}} {
		cl := cl
		b.Run(cl.Name(), func(b *testing.B) {
			ranked := make([]offer.Ranked, len(base))
			for i := 0; i < b.N; i++ {
				copy(ranked, base)
				offer.Sort(ranked, cl)
			}
		})
	}
}

// BenchmarkRenegotiate measures the reserved-session renegotiation round.
func BenchmarkRenegotiate(b *testing.B) {
	sys, doc := benchSystem(b, 1, 2)
	u := benchProfile()
	mach, _ := sys.Client("client-1")
	res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
	if err != nil || !res.Status.Reserved() {
		b.Fatalf("negotiate: %v %v", res.Status, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Manager.RenegotiateContext(context.Background(), res.Session.ID, u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15Federation measures one brokered negotiation across three
// provider domains (negotiate in each, keep the best, release the rest).
func BenchmarkE15Federation(b *testing.B) {
	var domains []*domain.Domain
	var firstClient client.Machine
	for i := 0; i < 3; i++ {
		sys, err := New(WithClients(1), WithServers(2))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.AddNewsArticle("news-1", "A", 2*time.Minute); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			firstClient, _ = sys.Client("client-1")
		}
		domains = append(domains, &domain.Domain{
			Name:     fmt.Sprintf("provider-%d", i+1),
			Manager:  sys.Manager,
			Registry: sys.Registry,
		})
	}
	broker := domain.NewBroker(domains...)
	u := benchProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := broker.Negotiate(firstClient, "news-1", u)
		if err != nil {
			b.Fatal(err)
		}
		if res.Session != nil {
			for _, d := range domains {
				if d.Name == res.Domain {
					d.Manager.Reject(res.Session.ID)
				}
			}
		}
	}
}

// BenchmarkE16MonitorScan measures one adaptation-monitor sweep over a
// loaded system (the E16 study's inner loop).
func BenchmarkE16MonitorScan(b *testing.B) {
	sys, doc := benchSystem(b, 2, 2)
	u := benchProfile()
	for i := 0; i < 6; i++ {
		mach, _ := sys.Client(fmt.Sprintf("client-%d", i%2+1))
		res, err := sys.NegotiateWith(context.Background(), mach, doc.ID, u)
		if err != nil || !res.Status.Reserved() {
			break
		}
		sys.Manager.Confirm(res.Session.ID)
	}
	mon := sys.Monitor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Scan()
	}
}

// BenchmarkE18Replicate measures catalog replication (the E18 preparation
// step) for a three-server spread.
func BenchmarkE18Replicate(b *testing.B) {
	doc := synthBenchDoc(3, 8)
	servers := []media.ServerID{"server-1", "server-2", "server-3"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		media.Replicate(doc, servers, 3)
	}
}
