package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"qosneg"
	"qosneg/internal/core"
	"qosneg/internal/protocol"
	"qosneg/internal/telemetry"
)

// startDaemon serves an in-process qosnegd-shaped system on loopback and
// returns its address. With instrument, the whole stack carries a shared
// telemetry registry, as the real daemon does.
func startDaemon(t *testing.T, instrument bool) string {
	t.Helper()
	_, addr := startDaemonSystem(t, instrument)
	return addr
}

// startDaemonSystem is startDaemon for tests that also drive the daemon's
// manager in-process.
func startDaemonSystem(t *testing.T, instrument bool, extra ...qosneg.Option) (*qosneg.System, string) {
	t.Helper()
	options := append([]qosneg.Option{qosneg.WithClients(1), qosneg.WithServers(2)}, extra...)
	var reg *telemetry.Registry
	if instrument {
		reg = telemetry.NewRegistry()
		options = append(options,
			qosneg.WithMetrics(reg),
			qosneg.WithTracer(telemetry.NewRing(64)))
	}
	sys, err := qosneg.New(options...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := protocol.NewServer(sys.Manager, sys.Registry)
	srv.Instrument(reg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	t.Cleanup(func() {
		l.Close()
		srv.Close()
		<-done
	})
	return sys, l.Addr().String()
}

// ctl runs one qosctl invocation against the daemon and returns its output.
func ctl(t *testing.T, addr string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(append([]string{"-addr", addr}, args...), &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestQosctlCatalogAndNegotiation(t *testing.T) {
	addr := startDaemon(t, true)

	for _, tc := range []struct {
		name string
		args []string
		code int
		want []string
	}{
		{
			name: "list",
			args: []string{"list"},
			want: []string{"news-1", "Election night", "components"},
		},
		{
			name: "negotiate-reject",
			args: []string{"-doc", "news-1", "negotiate"},
			want: []string{"status: SUCCEEDED", "offer video:", "reserved; cost",
				"rejected: resources released"},
		},
		{
			name: "negotiate-confirm",
			args: []string{"-doc", "news-1", "-confirm", "negotiate"},
			want: []string{"status: SUCCEEDED", "confirmed: delivery started"},
		},
		{
			name: "sessions",
			args: []string{"sessions"},
			want: []string{"news-1"},
		},
		{
			name: "session",
			args: []string{"-id", "2", "session"},
			want: []string{"session 2:"},
		},
		{
			name: "invoice",
			args: []string{"-id", "2", "invoice"},
			want: []string{"TOTAL"},
		},
		{
			name: "servers",
			args: []string{"servers"},
			want: []string{"server-1", "healthy", "utilization"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := ctl(t, addr, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout, w) {
					t.Errorf("output missing %q:\n%s", w, stdout)
				}
			}
		})
	}
}

// TestQosctlRetiredSession: a session that ended recently still answers
// `qosctl session`; one the daemon has since forgotten gets a message that
// says so, on stderr, with a non-zero exit.
func TestQosctlRetiredSession(t *testing.T) {
	sys, addr := startDaemonSystem(t, false)
	if out, stderr, code := ctl(t, addr, "-doc", "news-1", "negotiate"); code != 0 {
		t.Fatalf("negotiate: exit %d: %s%s", code, out, stderr)
	}
	if out, stderr, code := ctl(t, addr, "-id", "1", "session"); code != 0 || !strings.Contains(out, "session 1: aborted") {
		t.Fatalf("rejected session inside the ring: exit %d: %s%s", code, out, stderr)
	}
	for i := 0; i < core.TombstoneRing; i++ {
		res, err := sys.Negotiate(context.Background(), "client-1", "news-1", "tv-quality")
		if err != nil || res.Session == nil {
			t.Fatalf("churn negotiation %d: %v (%v)", i, err, res.Status)
		}
		if err := sys.Manager.Reject(res.Session.ID); err != nil {
			t.Fatal(err)
		}
	}
	out, stderr, code := ctl(t, addr, "-id", "1", "session")
	if code == 0 || out != "" || !strings.Contains(stderr, "session 1 is unknown or retired") {
		t.Errorf("evicted session: exit %d, stdout %q, stderr %q", code, out, stderr)
	}
}

// TestQosctlJSONCodecFlow pins the legacy serialized codec end to end: a
// -codec json client running the classic negotiate → confirm → invoice
// flow against the new daemon must behave exactly as the pre-multiplexing
// qosctl did.
func TestQosctlJSONCodecFlow(t *testing.T) {
	addr := startDaemon(t, true)
	stdout, stderr, code := ctl(t, addr, "-codec", "json", "-doc", "news-1", "-confirm", "negotiate")
	if code != 0 {
		t.Fatalf("negotiate: exit %d (stderr: %s)", code, stderr)
	}
	for _, w := range []string{"status: SUCCEEDED", "confirmed: delivery started"} {
		if !strings.Contains(stdout, w) {
			t.Errorf("output missing %q:\n%s", w, stdout)
		}
	}
	stdout, stderr, code = ctl(t, addr, "-codec", "json", "-id", "1", "invoice")
	if code != 0 {
		t.Fatalf("invoice: exit %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "TOTAL") {
		t.Errorf("invoice output missing TOTAL:\n%s", stdout)
	}
}

// TestQosctlBatch drives the batch subcommand: several documents in one
// round trip, per-item statuses, and a non-zero exit when an item names an
// unknown document.
func TestQosctlBatch(t *testing.T) {
	addr := startDaemon(t, true)
	stdout, stderr, code := ctl(t, addr, "-docs", "news-1,news-1", "batch")
	if code != 0 {
		t.Fatalf("batch: exit %d (stderr: %s)", code, stderr)
	}
	if got := strings.Count(stdout, "status: SUCCEEDED"); got != 2 {
		t.Errorf("want 2 successful items, got %d:\n%s", got, stdout)
	}
	if !strings.Contains(stdout, "rejected") {
		t.Errorf("unconfirmed batch items should be rejected:\n%s", stdout)
	}

	stdout, stderr, code = ctl(t, addr, "-docs", "news-1,ghost", "batch")
	if code != 1 {
		t.Fatalf("batch with unknown doc: exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "ghost") || !strings.Contains(stdout, "error") {
		t.Errorf("per-item report should name the failing document:\n%s", stdout)
	}
	if !strings.Contains(stdout, "status: SUCCEEDED") {
		t.Errorf("one failing item must not fail its siblings:\n%s", stdout)
	}
}

// TestQosctlStats: the report reads the same whatever the shard count. Each
// shard records negotiation latency under its own label, and round-robin
// placement spreads four negotiations over four shards, so the headline line
// must be the merge of every shard's histogram.
func TestQosctlStats(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, addr := startDaemonSystem(t, true, qosneg.WithShards(shards))
			for i := 0; i < 4; i++ {
				if stdout, stderr, code := ctl(t, addr, "-doc", "news-1", "negotiate"); code != 0 {
					t.Fatalf("negotiate: exit %d\n%s%s", code, stdout, stderr)
				}
			}

			stdout, stderr, code := ctl(t, addr, "stats")
			if code != 0 {
				t.Fatalf("stats: exit %d (stderr: %s)", code, stderr)
			}
			for _, w := range []string{
				"requests 4: SUCCEEDED 4",
				"negotiation latency: p50",
				"(n=4)\nstep latencies:",
				"local-negotiation",
				"commitment",
				"servers:",
				"server-1",
			} {
				if !strings.Contains(stdout, w) {
					t.Errorf("stats output missing %q:\n%s", w, stdout)
				}
			}
		})
	}
}

func TestQosctlStatsUninstrumented(t *testing.T) {
	addr := startDaemon(t, false)
	stdout, stderr, code := ctl(t, addr, "stats")
	if code != 0 {
		t.Fatalf("stats: exit %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "daemon not instrumented") {
		t.Errorf("stats against an uninstrumented daemon should say so:\n%s", stdout)
	}
}

func TestQosctlUsageErrors(t *testing.T) {
	addr := startDaemon(t, false)
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{name: "no-command", args: nil, code: 2, want: "usage:"},
		{name: "unknown-command", args: []string{"frobnicate"}, code: 2, want: "unknown command"},
		{name: "negotiate-without-doc", args: []string{"negotiate"}, code: 1, want: "negotiate needs -doc"},
		{name: "bad-session", args: []string{"-id", "9999", "session"}, code: 1, want: "qosctl:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := ctl(t, addr, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}
