// Command qosnegd is the negotiation daemon: it assembles the
// news-on-demand substrate (registry, CMFS servers, network, QoS manager),
// loads or synthesizes a document catalog, and serves the negotiation wire
// protocol on a TCP address. qosctl is the matching client.
//
// Usage:
//
//	qosnegd -addr :7000 -servers 3 -clients 4
//	qosnegd -addr :7000 -catalog catalog.json
//	qosnegd -addr :7000 -debug-addr 127.0.0.1:7070
//
// With -debug-addr the daemon also serves an observability surface over
// HTTP: /metrics (Prometheus text format), /debug/vars (expvar),
// /debug/trace (the most recent negotiation spans) and /debug/pprof/.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qosneg"
	"qosneg/internal/admission"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/media"
	"qosneg/internal/policy"
	"qosneg/internal/protocol"
	"qosneg/internal/telemetry"
)

// managerOptions is the flag→options wiring of the QoS manager and its
// tracer: the core options, and the ring behind /debug/trace, teed to logf
// under -verbose so that every negotiation decision is logged, once.
func managerOptions(offerCache int, health core.HealthPolicy, verbose bool, ring *telemetry.Ring, logf func(format string, args ...any)) []qosneg.Option {
	opts := core.DefaultOptions()
	opts.OfferCache = offerCache
	opts.Health = health
	var tracer telemetry.Tracer = ring
	if verbose {
		tracer = telemetry.Multi(ring, telemetry.LogTracer(logf))
	}
	return []qosneg.Option{qosneg.WithOptions(opts), qosneg.WithTracer(tracer)}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7000", "TCP listen address")
	servers := flag.Int("servers", 2, "number of CMFS servers")
	clients := flag.Int("clients", 4, "number of provisioned client attachment points")
	shards := flag.Int("shards", 1, "manager shards behind consistent-hash session routing")
	catalog := flag.String("catalog", "", "JSON document catalog to load (default: synthesize articles)")
	tariff := flag.String("pricing", "", "JSON tariff to load (default: built-in cost tables)")
	verbose := flag.Bool("verbose", false, "log every negotiation decision (the QoS manager's trace)")
	debugAddr := flag.String("debug-addr", "", "HTTP address for /metrics, /debug/vars, /debug/trace and /debug/pprof (empty disables)")
	maxStreams := flag.Int("max-streams", 0, "concurrent streams per multiplexed connection (0 selects the protocol default)")
	traceDepth := flag.Int("trace-depth", 256, "negotiation spans retained for /debug/trace")
	articles := flag.Int("articles", 5, "synthetic articles to create when no catalog is given")
	offerCache := flag.Int("offer-cache", 0, "candidate-set cache entries (0 selects the default size, negative disables caching)")
	healthThreshold := flag.Int("health-threshold", 3, "consecutive commit failures that quarantine a server (0 disables the breaker)")
	healthCooldown := flag.Duration("health-cooldown", core.DefaultCooldown, "quarantine period after the breaker trips")
	retryAfter := flag.Duration("retry-after", core.DefaultRetryAfter, "retry hint attached to FAILEDTRYLATER results")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the deterministic fault injector (0 disables injection unless another -fault-* flag is set)")
	faultCrash := flag.String("fault-crash", "", "comma-separated server ids to crash at startup (e.g. server-1)")
	faultReserve := flag.Float64("fault-reserve-failure", 0, "probability an injected Reserve fails")
	faultConnect := flag.Float64("fault-connect-failure", 0, "probability an injected Connect fails")
	faultLatency := flag.Duration("fault-latency", 0, "injected latency per Reserve/Connect")
	admit := flag.Bool("admission", false, "enable SLO-driven admission control: overloaded negotiations are shed with FAILEDTRYLATER and a load-derived retry hint")
	sloP99 := flag.Duration("slo-p99", admission.DefaultSLO, "negotiation-latency p99 target the admission controller defends (with -admission)")
	policyName := flag.String("policy", "", "selection/adaptation policy ordering commitment attempts among equally-ranked offers: static (the paper's fixed tie-break, the default) or bandit (online contextual bandit that learns which servers commit reliably)")
	policySeed := flag.Int64("policy-seed", 1, "deterministic seed for the bandit policy's exploration (with -policy bandit)")
	flag.Parse()

	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(*traceDepth)
	options := append(managerOptions(*offerCache, core.HealthPolicy{
		FailureThreshold: *healthThreshold,
		Cooldown:         *healthCooldown,
		RetryAfter:       *retryAfter,
	}, *verbose, ring, log.Printf),
		qosneg.WithMetrics(reg),
		qosneg.WithClients(*clients),
		qosneg.WithServers(*servers),
		qosneg.WithShards(*shards),
	)
	switch *policyName {
	case "", "static":
		// The fixed tie-break; installing policy.Static would be equivalent.
	case "bandit":
		cfg := policy.DefaultConfig()
		cfg.Seed = *policySeed
		b := policy.NewBandit(cfg)
		options = append(options,
			qosneg.WithSelectionPolicy(b), qosneg.WithAdaptationPolicy(b))
		log.Printf("bandit selection policy armed (seed %d)", *policySeed)
	default:
		log.Fatalf("qosnegd: unknown -policy %q (want static or bandit)", *policyName)
	}
	var ctrl *admission.Controller
	if *admit {
		ctrl = admission.New(admission.Config{SLO: *sloP99})
		options = append(options, qosneg.WithAdmission(ctrl))
		log.Printf("admission control armed (p99 SLO %s)", *sloP99)
	}
	var inj *faults.Injector
	if *faultSeed != 0 || *faultCrash != "" || *faultReserve > 0 || *faultConnect > 0 || *faultLatency > 0 {
		seed := *faultSeed
		if seed == 0 {
			seed = 1
		}
		inj = faults.New(seed)
		options = append(options, qosneg.WithFaultInjector(inj))
	}
	if *tariff != "" {
		p, err := cost.LoadPricing(*tariff)
		if err != nil {
			log.Fatalf("qosnegd: loading tariff: %v", err)
		}
		options = append(options, qosneg.WithPricing(p))
		log.Printf("loaded tariff from %s", *tariff)
	}
	sys, err := qosneg.New(options...)
	if err != nil {
		log.Fatalf("qosnegd: %v", err)
	}
	if inj != nil {
		if *faultReserve > 0 {
			inj.SetReserveFailure(*faultReserve)
		}
		if *faultConnect > 0 {
			inj.SetConnectFailure(*faultConnect)
		}
		if *faultLatency > 0 {
			inj.SetLatency(*faultLatency)
		}
		for _, id := range strings.Split(*faultCrash, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !inj.Crash(media.ServerID(id)) {
				log.Fatalf("qosnegd: -fault-crash: unknown server %q", id)
			}
			log.Printf("fault injector: crashed %s at startup", id)
		}
		log.Printf("fault injector armed (reserve-fail %.2f, connect-fail %.2f, latency %s)",
			*faultReserve, *faultConnect, *faultLatency)
	}
	if *catalog != "" {
		if err := sys.Registry.LoadFile(*catalog); err != nil {
			log.Fatalf("qosnegd: loading catalog: %v", err)
		}
		log.Printf("loaded %d documents from %s", sys.Registry.Len(), *catalog)
	} else {
		for i := 1; i <= *articles; i++ {
			id := media.DocumentID(fmt.Sprintf("news-%d", i))
			title := fmt.Sprintf("Synthetic article %d", i)
			if _, err := sys.AddNewsArticle(id, title, 2*time.Minute); err != nil {
				log.Fatalf("qosnegd: %v", err)
			}
		}
		log.Printf("synthesized %d articles", *articles)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("qosnegd: %v", err)
	}
	srv := protocol.NewServer(sys.Manager, sys.Registry,
		protocol.WithServerWire(protocol.WireOptions{MaxStreams: *maxStreams}), protocol.WithServerAdmission(ctrl))
	srv.Instrument(reg)
	playout := protocol.AttachPlayout(srv, sys.Manager, 100*time.Millisecond)

	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("qosnegd: debug listener: %v", err)
		}
		reg.PublishExpvar("qosneg")
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, e := range ring.Events() {
				fmt.Fprintln(w, e.String())
			}
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(dl, mux); err != nil && !strings.Contains(err.Error(), "use of closed network connection") {
				log.Printf("qosnegd: debug server: %v", err)
			}
		}()
		log.Printf("debug surface on http://%s (/metrics, /debug/vars, /debug/trace, /debug/pprof/)", dl.Addr())
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, drain handlers
	// and playout goroutines, report final stats.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("qosnegd: shutting down")
		l.Close()
		srv.Close()
		playout.Stop()
		st := sys.Manager.Stats()
		log.Printf("qosnegd: served %d requests (%d succeeded, %d with degraded offer)",
			st.Requests, st.Succeeded, st.FailedWithOffer)
		os.Exit(0)
	}()

	log.Printf("qosnegd listening on %s (%d manager shards, %d servers, %d client slots, real-time playout on)",
		l.Addr(), sys.Fleet.Shards(), *servers, *clients)
	if err := srv.Serve(l); err != nil {
		log.Fatalf("qosnegd: %v", err)
	}
}
