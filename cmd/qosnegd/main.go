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
// tracer: the offer cache, the circuit breaker, and the ring behind
// /debug/trace, teed to logf under -verbose so that every negotiation
// decision is logged, once.
func managerOptions(offerCache int, health core.HealthPolicy, verbose bool, ring *telemetry.Ring, logf func(format string, args ...any)) []qosneg.Option {
	var tracer telemetry.Tracer = ring
	if verbose {
		tracer = telemetry.Multi(ring, telemetry.LogTracer(logf))
	}
	return []qosneg.Option{qosneg.WithOfferCache(offerCache), qosneg.WithHealthPolicy(health), qosneg.WithTracer(tracer)}
}

// flags is the daemon's command line.
type flags struct {
	addr, catalog, tariff, debugAddr, faultCrash, policy string
	servers, clients, maxStreams, traceDepth, articles   int
	offerCache, healthThreshold                          int
	verbose, admit                                       bool
	healthCooldown, retryAfter, faultLatency, sloP99     time.Duration
	faultSeed                                            int64
	faultReserve, faultConnect                           float64
}

// defineFlags registers the daemon's flags on fs.
func defineFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.addr, "addr", "127.0.0.1:7000", "TCP listen address")
	fs.IntVar(&f.servers, "servers", 2, "number of CMFS servers")
	fs.IntVar(&f.clients, "clients", 4, "number of provisioned client attachment points")
	fs.StringVar(&f.catalog, "catalog", "", "JSON document catalog to load (default: synthesize articles)")
	fs.StringVar(&f.tariff, "pricing", "", "JSON tariff to load (default: built-in cost tables)")
	fs.BoolVar(&f.verbose, "verbose", false, "log every negotiation decision (the QoS manager's trace)")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "HTTP address for /metrics, /debug/vars, /debug/trace and /debug/pprof (empty disables)")
	fs.IntVar(&f.maxStreams, "max-streams", 0, "concurrent streams per multiplexed connection (0 selects the protocol default)")
	fs.IntVar(&f.traceDepth, "trace-depth", 256, "negotiation spans retained for /debug/trace")
	fs.IntVar(&f.articles, "articles", 5, "synthetic articles to create when no catalog is given")
	fs.IntVar(&f.offerCache, "offer-cache", 0, "candidate-set cache entries (0 selects the default size, negative disables caching)")
	fs.IntVar(&f.healthThreshold, "health-threshold", 3, "consecutive commit failures that quarantine a server (0 disables the breaker)")
	fs.DurationVar(&f.healthCooldown, "health-cooldown", core.DefaultCooldown, "quarantine period after the breaker trips")
	fs.DurationVar(&f.retryAfter, "retry-after", core.DefaultRetryAfter, "retry hint attached to FAILEDTRYLATER results")
	fs.Int64Var(&f.faultSeed, "fault-seed", 0, "seed for the deterministic fault injector (0 disables injection unless another -fault-* flag is set)")
	fs.StringVar(&f.faultCrash, "fault-crash", "", "comma-separated server ids to crash at startup (e.g. server-1)")
	fs.Float64Var(&f.faultReserve, "fault-reserve-failure", 0, "probability an injected Reserve fails")
	fs.Float64Var(&f.faultConnect, "fault-connect-failure", 0, "probability an injected Connect fails")
	fs.DurationVar(&f.faultLatency, "fault-latency", 0, "injected latency per Reserve/Connect")
	fs.BoolVar(&f.admit, "admission", false, "enable SLO-driven admission control: overloaded negotiations are shed with FAILEDTRYLATER and a load-derived retry hint")
	fs.DurationVar(&f.sloP99, "slo-p99", admission.DefaultSLO, "negotiation-latency p99 target the admission controller defends (with -admission)")
	fs.StringVar(&f.policy, "policy", "", "policy ordering commitment attempts and adaptation targets among equally-ranked offers: static (the paper's fixed tie-break, the default) or bandit (contextual bandit that tries first the servers whose commits the server table records as reliable)")
	return f
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()

	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(f.traceDepth)
	sys, err := newSystem(f, reg, ring, log.Printf)
	if err != nil {
		log.Fatalf("qosnegd: %v", err)
	}

	sys.Wire = protocol.WireOptions{MaxStreams: f.maxStreams}
	l, err := net.Listen("tcp", f.addr)
	if err != nil {
		log.Fatalf("qosnegd: %v", err)
	}

	if f.debugAddr != "" {
		dl, err := net.Listen("tcp", f.debugAddr)
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

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting (Serve then stops
	// the playout driver and returns), drain handlers, report final stats.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("qosnegd: shutting down")
		l.Close()
	}()

	log.Printf("qosnegd listening on %s (%d servers, %d client slots, real-time playout on)",
		l.Addr(), f.servers, f.clients)
	srv, err := sys.Serve(l)
	if err != nil {
		log.Fatalf("qosnegd: %v", err)
	}
	srv.Close()
	st := sys.Manager.Stats()
	log.Printf("qosnegd: served %d requests (%d succeeded, %d with degraded offer)",
		st.Requests, st.Succeeded, st.FailedWithOffer)
}

// newSystem assembles the system the flags describe, instrumented on reg and
// traced into ring: the manager options, the policy, admission control, the
// fault injector with its rates set and its startup crashes applied, the
// tariff, and the catalog loaded or synthesized.
func newSystem(f *flags, reg *telemetry.Registry, ring *telemetry.Ring, logf func(format string, args ...any)) (*qosneg.System, error) {
	options := append(managerOptions(f.offerCache, core.HealthPolicy{
		FailureThreshold: f.healthThreshold,
		Cooldown:         f.healthCooldown,
		RetryAfter:       f.retryAfter,
	}, f.verbose, ring, logf),
		qosneg.WithMetrics(reg),
		qosneg.WithClients(f.clients),
		qosneg.WithServers(f.servers),
	)
	switch f.policy {
	case "", "static":
		// The fixed tie-break; installing policy.Static would be equivalent.
	case "bandit":
		options = append(options, qosneg.WithPolicy(policy.NewBandit()))
		logf("bandit policy armed")
	default:
		return nil, fmt.Errorf("unknown -policy %q (want static or bandit)", f.policy)
	}
	if f.admit {
		options = append(options, qosneg.WithAdmission(admission.New(admission.Config{SLO: f.sloP99})))
		logf("admission control armed (p99 SLO %s)", f.sloP99)
	}
	var inj *faults.Injector
	if f.faultSeed != 0 || f.faultCrash != "" || f.faultReserve > 0 || f.faultConnect > 0 || f.faultLatency > 0 {
		seed := f.faultSeed
		if seed == 0 {
			seed = 1
		}
		inj = faults.New(seed)
		options = append(options, qosneg.WithFaultInjector(inj))
	}
	if f.tariff != "" {
		p, err := cost.LoadPricing(f.tariff)
		if err != nil {
			return nil, fmt.Errorf("loading tariff: %w", err)
		}
		options = append(options, qosneg.WithPricing(p))
		logf("loaded tariff from %s", f.tariff)
	}
	sys, err := qosneg.New(options...)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		if f.faultReserve > 0 {
			inj.SetReserveFailure(f.faultReserve)
		}
		if f.faultConnect > 0 {
			inj.SetConnectFailure(f.faultConnect)
		}
		if f.faultLatency > 0 {
			inj.SetLatency(f.faultLatency)
		}
		for _, id := range strings.Split(f.faultCrash, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !inj.Crash(media.ServerID(id)) {
				return nil, fmt.Errorf("-fault-crash: unknown server %q", id)
			}
			logf("fault injector: crashed %s at startup", id)
		}
		logf("fault injector armed (reserve-fail %.2f, connect-fail %.2f, latency %s)",
			f.faultReserve, f.faultConnect, f.faultLatency)
	}
	if f.catalog != "" {
		if err := sys.Registry.LoadFile(f.catalog); err != nil {
			return nil, fmt.Errorf("loading catalog: %w", err)
		}
		logf("loaded %d documents from %s", sys.Registry.Len(), f.catalog)
	} else {
		for i := 1; i <= f.articles; i++ {
			id := media.DocumentID(fmt.Sprintf("news-%d", i))
			title := fmt.Sprintf("Synthetic article %d", i)
			if _, err := sys.AddNewsArticle(id, title, 2*time.Minute); err != nil {
				return nil, err
			}
		}
		logf("synthesized %d articles", f.articles)
	}
	return sys, nil
}
