// Command qosctl talks to a qosnegd daemon: it lists the catalog, runs a
// negotiation with a factory profile, confirms or rejects the reserved
// offer, negotiates a whole playlist in one round trip, inspects sessions,
// and renders the daemon's telemetry.
//
// Usage:
//
//	qosctl -addr 127.0.0.1:7000 list
//	qosctl -addr 127.0.0.1:7000 negotiate -doc news-1 -profile tv-quality [-confirm]
//	qosctl -addr 127.0.0.1:7000 batch -docs news-1,movie-2 -profile tv-quality [-confirm]
//	qosctl -addr 127.0.0.1:7000 renegotiate -id 3 -profile premium [-confirm]
//	qosctl -addr 127.0.0.1:7000 session -id 3
//	qosctl -addr 127.0.0.1:7000 watch -id 3
//	qosctl -addr 127.0.0.1:7000 sessions
//	qosctl -addr 127.0.0.1:7000 invoice -id 3
//	qosctl -addr 127.0.0.1:7000 servers
//	qosctl -addr 127.0.0.1:7000 stats
//	qosctl -addr 127.0.0.1:7000 shards
//
// The -codec flag pins the wire codec: "auto" (default) negotiates the
// multiplexed binary codec (binary/2: typed frame bodies) and falls back to
// JSON against daemons that predate it, "binary" refuses to fall back, and
// "json" speaks the legacy line protocol byte-for-byte.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/protocol"
	"qosneg/internal/shard"
	"qosneg/internal/telemetry"
)

const usage = "usage: qosctl [flags] list|negotiate|batch|renegotiate|session|sessions|invoice|servers|watch|stats|shards"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so tests can drive the whole
// CLI in-process against a loopback daemon.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qosctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7000", "daemon address")
	doc := fs.String("doc", "", "document id for negotiate")
	docs := fs.String("docs", "", "comma-separated document ids for batch")
	profileName := fs.String("profile", "tv-quality", "factory profile: tv-quality, premium or economy")
	clientNode := fs.String("client", "client-1", "client attachment point on the daemon's network")
	confirm := fs.Bool("confirm", false, "confirm the offer after a successful negotiation")
	codec := fs.String("codec", "auto", "wire codec: auto (binary/2, falling back to JSON lines against a daemon without it), binary (no fallback) or json")
	id := fs.Uint64("id", 0, "session id for the session command")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	var wire protocol.WireOptions
	switch *codec {
	case "auto":
		// Zero value: offer binary, fall back to JSON.
	case "binary":
		wire.Codecs = []string{protocol.CodecBinary}
	case "json":
		wire.Codecs = []string{protocol.CodecJSON}
	default:
		fmt.Fprintf(stderr, "qosctl: unknown codec %q (want auto, binary or json)\n", *codec)
		return 2
	}
	ctx := context.Background()
	c, err := protocol.Dial(*addr, protocol.WithWire(wire))
	if err != nil {
		fmt.Fprintf(stderr, "qosctl: %v\n", err)
		return 1
	}
	defer c.Close()

	fail := func(err error) int {
		fmt.Fprintf(stderr, "qosctl: %v\n", err)
		return 1
	}

	switch fs.Arg(0) {
	case "list":
		docs, err := c.ListDocuments(ctx, "")
		if err != nil {
			return fail(err)
		}
		for _, d := range docs {
			fmt.Fprintf(stdout, "%-12s %-40s %d components\n", d.ID, d.Title, d.Components)
		}
	case "negotiate":
		if *doc == "" {
			return fail(fmt.Errorf("negotiate needs -doc"))
		}
		u, err := factoryProfile(*profileName)
		if err != nil {
			return fail(err)
		}
		mach := client.Workstation(client.MachineID(*clientNode), network.NodeID(*clientNode))
		res, err := c.Negotiate(ctx, mach, media.DocumentID(*doc), u)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "status: %s\n", res.Status)
		if res.Reason != "" {
			fmt.Fprintf(stdout, "reason: %s\n", res.Reason)
		}
		if res.Shed {
			fmt.Fprintln(stdout, "shed: refused by admission control (overload, not capacity)")
		}
		if res.RetryAfter > 0 {
			fmt.Fprintf(stdout, "retry after: %s\n", res.RetryAfter)
		}
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "violation: %s\n", v)
		}
		if res.Offer != nil {
			printOffer(stdout, res.Offer)
		}
		if res.Status.Reserved() {
			fmt.Fprintf(stdout, "session %d reserved; cost %s; confirm within %s\n", res.Session, res.Cost, res.ChoicePeriod)
			if *confirm {
				if err := c.Confirm(ctx, res.Session); err != nil {
					return fail(fmt.Errorf("confirm: %w", err))
				}
				fmt.Fprintln(stdout, "confirmed: delivery started")
			} else {
				if err := c.Reject(ctx, res.Session); err != nil {
					return fail(fmt.Errorf("reject: %w", err))
				}
				fmt.Fprintln(stdout, "rejected: resources released (pass -confirm to accept)")
			}
		}
	case "batch":
		if *docs == "" {
			return fail(fmt.Errorf("batch needs -docs (comma-separated document ids)"))
		}
		u, err := factoryProfile(*profileName)
		if err != nil {
			return fail(err)
		}
		mach := client.Workstation(client.MachineID(*clientNode), network.NodeID(*clientNode))
		var items []protocol.BatchItem
		for _, d := range strings.Split(*docs, ",") {
			d = strings.TrimSpace(d)
			if d == "" {
				continue
			}
			items = append(items, protocol.BatchItem{Machine: &mach, Document: media.DocumentID(d), Profile: &u})
		}
		if len(items) == 0 {
			return fail(fmt.Errorf("batch needs -docs (comma-separated document ids)"))
		}
		results, err := c.BatchNegotiate(ctx, items)
		if err != nil {
			return fail(err)
		}
		exit := 0
		for i, res := range results {
			name := items[i].Document
			if res.Err != nil {
				fmt.Fprintf(stdout, "%-12s error: %v\n", name, res.Err)
				exit = 1
				continue
			}
			fmt.Fprintf(stdout, "%-12s status: %s", name, res.Status)
			if res.Shed {
				fmt.Fprint(stdout, " (shed)")
			}
			if res.RetryAfter > 0 {
				fmt.Fprintf(stdout, " (retry after %s)", res.RetryAfter)
			}
			fmt.Fprintln(stdout)
			if !res.Status.Reserved() {
				continue
			}
			if *confirm {
				if err := c.Confirm(ctx, res.Session); err != nil {
					return fail(fmt.Errorf("confirm %s: %w", name, err))
				}
				fmt.Fprintf(stdout, "%-12s session %d confirmed; cost %s\n", name, res.Session, res.Cost)
			} else {
				if err := c.Reject(ctx, res.Session); err != nil {
					return fail(fmt.Errorf("reject %s: %w", name, err))
				}
				fmt.Fprintf(stdout, "%-12s session %d rejected (pass -confirm to accept)\n", name, res.Session)
			}
		}
		return exit
	case "renegotiate":
		if *id == 0 {
			return fail(fmt.Errorf("renegotiate needs -id"))
		}
		u, err := factoryProfile(*profileName)
		if err != nil {
			return fail(err)
		}
		res, err := c.Renegotiate(ctx, core.SessionID(*id), u)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "status: %s\n", res.Status)
		if res.RetryAfter > 0 {
			fmt.Fprintf(stdout, "retry after: %s\n", res.RetryAfter)
		}
		if res.Offer != nil {
			printOffer(stdout, res.Offer)
		}
		if res.Status.Reserved() {
			fmt.Fprintf(stdout, "session %d re-reserved; cost %s; confirm within %s\n", res.Session, res.Cost, res.ChoicePeriod)
			if *confirm {
				if err := c.Confirm(ctx, res.Session); err != nil {
					return fail(fmt.Errorf("confirm: %w", err))
				}
				fmt.Fprintln(stdout, "confirmed: delivery started")
			}
		}
	case "session":
		info, err := c.Session(ctx, core.SessionID(*id))
		if errors.Is(err, core.ErrUnknownSession) {
			return fail(fmt.Errorf("session %d is unknown or retired: the daemon remembers the last %d ended sessions of each shard", *id, core.TombstoneRing))
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "session %d: %s, position %s, %d transition(s), cost %s\n",
			info.Session, info.State, info.Position, info.Transitions, info.Cost)
	case "watch":
		if *id == 0 {
			return fail(fmt.Errorf("watch needs -id"))
		}
		err := c.Watch(ctx, core.SessionID(*id), 250*time.Millisecond, func(i protocol.SessionInfo) {
			fmt.Fprintf(stdout, "session %d: %-9s position %-8s transitions %d\n",
				i.Session, i.State, i.Position, i.Transitions)
		})
		if err != nil {
			return fail(err)
		}
	case "sessions":
		rows, err := c.ListSessions(ctx)
		if err != nil {
			return fail(err)
		}
		for _, r := range rows {
			fmt.Fprintf(stdout, "%4d %-12s %-10s pos %-10s transitions %d cost %s\n",
				r.Session, r.Document, r.State, time.Duration(r.PositionMs)*time.Millisecond, r.Transitions, r.Cost)
		}
	case "invoice":
		if *id == 0 {
			return fail(fmt.Errorf("invoice needs -id"))
		}
		inv, err := c.Invoice(ctx, core.SessionID(*id))
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, inv.String())
	case "servers":
		loads, err := c.ServerLoads(ctx)
		if err != nil {
			return fail(err)
		}
		printServers(stdout, loads)
	case "stats":
		st, err := c.Stats(ctx)
		if err != nil {
			return fail(err)
		}
		snap, err := c.Metrics(ctx)
		if err != nil {
			return fail(err)
		}
		loads, err := c.ServerLoads(ctx)
		if err != nil {
			return fail(err)
		}
		printStats(stdout, st, snap, loads)
	case "shards":
		rows, err := c.ShardStats(ctx)
		if err != nil {
			return fail(err)
		}
		if len(rows) == 0 {
			fmt.Fprintln(stdout, "daemon reports no per-shard view")
			break
		}
		printShards(stdout, rows)
	default:
		fmt.Fprintf(stderr, "qosctl: unknown command %q\n", fs.Arg(0))
		return 2
	}
	return 0
}

// printStats renders the daemon's counters, the wire-snapshot latency
// quantiles, and the per-server breaker state in one report.
func printStats(w io.Writer, st core.Stats, snap telemetry.Snapshot, loads []core.ServerLoad) {
	fmt.Fprintf(w, "requests %d: SUCCEEDED %d, FAILEDWITHOFFER %d, FAILEDTRYLATER %d, "+
		"FAILEDWITHOUTOFFER %d, FAILEDWITHLOCALOFFER %d; adaptations %d (failed %d)\n",
		st.Requests, st.Succeeded, st.FailedWithOffer, st.FailedTryLater,
		st.FailedWithoutOffer, st.FailedWithLocalOffer, st.Adaptations, st.AdaptationFailures)
	if st.OfferCacheHits+st.OfferCacheMisses > 0 {
		ratio := float64(st.OfferCacheHits) / float64(st.OfferCacheHits+st.OfferCacheMisses)
		fmt.Fprintf(w, "offer cache: %d hits, %d misses (%.0f%% hit rate), %d invalidations, %d entries\n",
			st.OfferCacheHits, st.OfferCacheMisses, 100*ratio, st.OfferCacheInvalidations, st.OfferCacheEntries)
	}
	if st.AdmissionSheds > 0 {
		fmt.Fprintf(w, "admission sheds: %d (FAILEDTRYLATER by overload, included in the counts above)\n",
			st.AdmissionSheds)
	}

	if len(snap.Counters)+len(snap.Histograms) == 0 {
		fmt.Fprintln(w, "telemetry: daemon not instrumented (no metrics snapshot)")
		return
	}
	// Every shard records its own latency series; the headline is the fleet's.
	if h, ok := snap.Merged(core.MetricNegotiationTime); ok && h.Count > 0 {
		fmt.Fprintf(w, "negotiation latency: %s (n=%d)\n", quantiles(h), h.Count)
	}
	steps := []telemetry.Step{
		telemetry.StepLocalNegotiation,
		telemetry.StepCompatibilityCheck,
		telemetry.StepClassificationParams,
		telemetry.StepClassification,
		telemetry.StepCommitment,
		telemetry.StepConfirmation,
	}
	header := false
	for _, s := range steps {
		h, ok := snap.Find(core.MetricStepTime, s.String())
		if !ok || h.Count == 0 {
			continue
		}
		if !header {
			fmt.Fprintln(w, "step latencies:")
			header = true
		}
		fmt.Fprintf(w, "  %-22s %s (n=%d)\n", s, quantiles(h), h.Count)
	}
	if v := snap.CounterValue(core.MetricCommitFailures, ""); v > 0 {
		fmt.Fprintf(w, "commit failures: %d (skipped dead servers %d, quarantine trips %d)\n",
			v, snap.CounterValue(core.MetricCommitSkips, ""),
			snap.CounterValue(core.MetricQuarantines, ""))
	}
	if v := snap.CounterValue(core.MetricRevenue, ""); v > 0 {
		fmt.Fprintf(w, "revenue: $%.3f\n", float64(v)/1000)
	}
	admitted := snap.CounterValue(admission.MetricAdmitted, "")
	shed := snap.CounterValue(admission.MetricSheds, "")
	if admitted+shed > 0 {
		limit, _ := gaugeValue(snap, admission.MetricLimit)
		inflight, _ := gaugeValue(snap, admission.MetricInFlight)
		hint, _ := gaugeValue(snap, admission.MetricRetryAfter)
		fmt.Fprintf(w, "admission: %d admitted, %d shed; limit %d, in-flight %d, retry hint %s\n",
			admitted, shed, limit, inflight, time.Duration(hint)*time.Millisecond)
	}
	if v := snap.CounterValue("qosneg_rpc_shed_total", ""); v > 0 {
		fmt.Fprintf(w, "wire sheds: %d (binary %d, json %d)\n", v,
			snap.CounterValue("qosneg_rpc_shed_total", protocol.CodecBinary),
			snap.CounterValue("qosneg_rpc_shed_total", protocol.CodecJSON))
	}
	if len(loads) > 0 {
		fmt.Fprintln(w, "servers:")
		printServers(indent(w), loads)
	}
}

// printShards renders the per-shard fleet view: live sessions, outcome
// counters, update-bus lag and breaker state for each manager shard.
func printShards(w io.Writer, rows []shard.Stat) {
	for _, r := range rows {
		st := r.Stats
		fmt.Fprintf(w, "shard %d: %d live session(s), bus lag %d\n", r.Shard, r.Sessions, r.BusLag)
		fmt.Fprintf(w, "  requests %d: SUCCEEDED %d, FAILEDWITHOFFER %d, FAILEDTRYLATER %d, "+
			"FAILEDWITHOUTOFFER %d, FAILEDWITHLOCALOFFER %d; adaptations %d (failed %d)\n",
			st.Requests, st.Succeeded, st.FailedWithOffer, st.FailedTryLater,
			st.FailedWithoutOffer, st.FailedWithLocalOffer, st.Adaptations, st.AdaptationFailures)
		if st.Quarantines > 0 || st.AdmissionSheds > 0 {
			fmt.Fprintf(w, "  quarantines %d, admission sheds %d\n", st.Quarantines, st.AdmissionSheds)
		}
		for _, b := range r.Breakers {
			health := "recovered"
			if b.Quarantined {
				health = fmt.Sprintf("QUARANTINED %s", time.Duration(b.QuarantineMs)*time.Millisecond)
			} else if b.ConsecutiveFailures > 0 {
				health = fmt.Sprintf("%d consecutive failure(s)", b.ConsecutiveFailures)
			}
			fmt.Fprintf(w, "  breaker %-12s %-24s trips %d\n", b.Server, health, b.Quarantines)
		}
	}
}

// gaugeValue finds an unlabeled gauge in the snapshot by name.
func gaugeValue(snap telemetry.Snapshot, name string) (int64, bool) {
	for _, g := range snap.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

func quantiles(h telemetry.HistogramPoint) string {
	return fmt.Sprintf("p50 %s  p90 %s  p99 %s",
		round(h.Quantile(0.50)), round(h.Quantile(0.90)), round(h.Quantile(0.99)))
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}

func printServers(w io.Writer, loads []core.ServerLoad) {
	for _, l := range loads {
		health := "healthy"
		if l.Quarantined {
			health = fmt.Sprintf("QUARANTINED %s", time.Duration(l.QuarantineMs)*time.Millisecond)
		} else if l.ConsecutiveFailures > 0 {
			health = fmt.Sprintf("%d consecutive failure(s)", l.ConsecutiveFailures)
		}
		fmt.Fprintf(w, "%-12s %2d streams  utilization %.2f  %-24s down %d reserve-fail %d connect-fail %d\n",
			l.ID, l.ActiveStreams, l.Utilization, health, l.DownFailures, l.ReserveFailures, l.ConnectFailures)
	}
}

// indent returns a writer that prefixes every write with two spaces; the
// server table is reused verbatim by both "servers" and "stats".
func indent(w io.Writer) io.Writer { return indentWriter{w} }

type indentWriter struct{ w io.Writer }

func (iw indentWriter) Write(p []byte) (int, error) {
	if _, err := iw.w.Write(append([]byte("  "), p...)); err != nil {
		return 0, err
	}
	return len(p), nil
}

func factoryProfile(name string) (profile.UserProfile, error) {
	for _, p := range profile.DefaultProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return profile.UserProfile{}, fmt.Errorf("unknown factory profile %q", name)
}

func printOffer(w io.Writer, o *profile.MMProfile) {
	if o.Video != nil {
		fmt.Fprintf(w, "offer video: %s\n", o.Video)
	}
	if o.Audio != nil {
		fmt.Fprintf(w, "offer audio: %s\n", o.Audio)
	}
	if o.Image != nil {
		fmt.Fprintf(w, "offer image: %s\n", o.Image)
	}
	if o.Text != nil {
		fmt.Fprintf(w, "offer text:  %s\n", o.Text)
	}
}
