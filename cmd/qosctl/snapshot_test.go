package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"qosneg"
	"qosneg/internal/admission"
	"qosneg/internal/core"
	"qosneg/internal/faults"
	"qosneg/internal/telemetry"
)

// rpcCounts reads how many RPCs of each type the daemon has timed.
func rpcCounts(reg *telemetry.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "qosneg_rpc_server_seconds" {
			out[h.Labels["type"]] = h.Count
		}
	}
	return out
}

// TestQosctlOneSnapshot: stats and servers each render one metrics
// snapshot, so every figure a view prints is of one instant, and what they
// print is what the manager and its server table hold. The daemon runs
// through successes, an admission shed, an adaptation and a quarantine trip.
func TestQosctlOneSnapshot(t *testing.T) {
	inj := faults.New(11)
	ctrl := admission.New(admission.Config{MaxInFlight: 1, MinInFlight: 1})
	sys, addr := startDaemonSystem(t, true, qosneg.WithAdmission(ctrl), qosneg.WithFaultInjector(inj))
	negotiate := func(args ...string) string {
		t.Helper()
		stdout, stderr, code := ctl(t, addr, append(args, "-doc", "news-1", "negotiate")...)
		if code != 0 {
			t.Fatalf("negotiate: exit %d\n%s%s", code, stdout, stderr)
		}
		return stdout
	}
	for i := 0; i < 4; i++ {
		negotiate("-confirm")
	}
	release, _, ok := ctrl.Admit()
	if !ok {
		t.Fatal("could not pin the controller")
	}
	if out := negotiate(); !strings.Contains(out, "shed: ") {
		t.Fatalf("negotiation past a pinned controller was not shed:\n%s", out)
	}
	release()
	playing := sys.Manager.Sessions(core.Playing)
	if len(playing) == 0 {
		t.Fatal("no playing session to adapt")
	}
	sys.Manager.Adapt(playing[0].ID)
	inj.Crash("server-1")
	for i := 0; i < 16 && sys.Manager.Stats().Quarantines == 0; i++ {
		negotiate()
	}
	st := sys.Manager.Stats()
	if st.Succeeded == 0 || st.AdmissionSheds != 1 || st.Adaptations+st.AdaptationFailures != 1 || st.Quarantines != 1 {
		t.Fatalf("the run is not the mix the test needs: %+v", st)
	}

	outputs := map[string]string{}
	for _, cmd := range []string{"stats", "servers"} {
		before := rpcCounts(sys.Metrics)
		stdout, stderr, code := ctl(t, addr, cmd)
		if code != 0 {
			t.Fatalf("%s: exit %d (stderr: %s)", cmd, code, stderr)
		}
		after := rpcCounts(sys.Metrics)
		for typ, n := range after {
			want := uint64(0)
			if typ == "metrics" {
				want = 1
			}
			if n-before[typ] != want {
				t.Errorf("%s made %d %q call(s), want %d", cmd, n-before[typ], typ, want)
			}
		}
		outputs[cmd] = stdout
	}

	for _, want := range []string{
		fmt.Sprintf("requests %d: SUCCEEDED %d, FAILEDWITHOFFER %d, FAILEDTRYLATER %d, "+
			"FAILEDWITHOUTOFFER %d, FAILEDWITHLOCALOFFER %d; adaptations %d (failed %d)\n",
			st.Requests, st.Succeeded, st.FailedWithOffer, st.FailedTryLater,
			st.FailedWithoutOffer, st.FailedWithLocalOffer, st.Adaptations, st.AdaptationFailures),
		fmt.Sprintf("offer cache: %d hits, %d misses (%.0f%% hit rate), %d invalidations, %d entries\n",
			st.OfferCacheHits, st.OfferCacheMisses,
			100*float64(st.OfferCacheHits)/float64(st.OfferCacheHits+st.OfferCacheMisses),
			st.OfferCacheInvalidations, st.OfferCacheEntries),
		fmt.Sprintf("admission sheds: %d (", st.AdmissionSheds),
		fmt.Sprintf("commit failures: %d (", st.CommitServerDown+st.CommitCapacity+st.CommitConstraint),
		fmt.Sprintf(", quarantine trips %d)\n", st.Quarantines),
	} {
		if !strings.Contains(outputs["stats"], want) {
			t.Errorf("stats output missing %q, which Manager.Stats reads:\n%s", want, outputs["stats"])
		}
	}

	loads := sys.Manager.ServerLoads()
	lines := strings.Split(strings.TrimSpace(outputs["servers"]), "\n")
	if len(lines) != len(loads) {
		t.Fatalf("servers printed %d rows, the table holds %d:\n%s", len(lines), len(loads), outputs["servers"])
	}
	for i, l := range loads {
		f := strings.Fields(lines[i])
		if len(f) < 12 {
			t.Fatalf("servers row %q is short", lines[i])
		}
		tail := f[len(f)-6:]
		health := strings.Join(f[5:len(f)-6], " ")
		got := []string{f[0], f[1], f[4], tail[1], tail[3], tail[5]}
		want := []string{string(l.ID), strconv.Itoa(l.ActiveStreams), fmt.Sprintf("%.2f", math.Round(1000*l.Utilization)/1000),
			strconv.Itoa(l.DownFailures), strconv.Itoa(l.ReserveFailures), strconv.Itoa(l.ConnectFailures)}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("servers row %q reads %v, ServerLoads %v", lines[i], got, want)
		}
		switch left, err := time.ParseDuration(strings.TrimPrefix(health, "QUARANTINED ")); {
		case l.Quarantined:
			// The remaining quarantine is rendered to the second.
			if err != nil || (left-time.Duration(l.QuarantineMs)*time.Millisecond).Abs() > time.Second {
				t.Errorf("servers row %q: ServerLoads has %s left in quarantine", lines[i], time.Duration(l.QuarantineMs)*time.Millisecond)
			}
		case l.ConsecutiveFailures > 0:
			if want := fmt.Sprintf("%d consecutive failure(s)", l.ConsecutiveFailures); health != want {
				t.Errorf("servers row %q: health %q, ServerLoads %q", lines[i], health, want)
			}
		case health != "healthy":
			t.Errorf("servers row %q: health %q, ServerLoads healthy", lines[i], health)
		}
	}
}
