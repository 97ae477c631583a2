package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"qosneg"
	"qosneg/internal/admission"
	"qosneg/internal/protocol"
	"qosneg/internal/telemetry"
)

// pinController saturates a one-slot controller for the test's lifetime.
func pinController(t *testing.T) *admission.Controller {
	t.Helper()
	ctrl := admission.New(admission.Config{MaxInFlight: 1, MinInFlight: 1})
	rel, _, ok := ctrl.Admit()
	if !ok {
		t.Fatal("could not pin the controller")
	}
	t.Cleanup(rel)
	return ctrl
}

// startShedDaemon serves a system whose QoS manager sheds everything. When
// wireShed is set the protocol server also carries the controller, so sheds
// happen at the wire as typed busy replies; otherwise they surface as
// FAILEDTRYLATER results with the Shed flag.
func startShedDaemon(t *testing.T, wireShed bool) string {
	t.Helper()
	ctrl := pinController(t)
	reg := telemetry.NewRegistry()
	sys, err := qosneg.New(
		qosneg.WithClients(1), qosneg.WithServers(2),
		qosneg.WithAdmission(ctrl), qosneg.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Instrument(reg)
	if _, err := sys.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvOpts := []protocol.ServerOption{}
	if wireShed {
		srvOpts = append(srvOpts, protocol.WithServerAdmission(ctrl))
	}
	srv := protocol.NewServer(sys.Manager, sys.Registry, srvOpts...)
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
	return l.Addr().String()
}

// TestQosctlRendersShedResult: a manager-level shed renders the Shed
// marker and the RetryAfter hint.
func TestQosctlRendersShedResult(t *testing.T) {
	addr := startShedDaemon(t, false)
	t.Run("auto", func(t *testing.T) {
		stdout, stderr, code := ctl(t, addr, "-doc", "news-1", "negotiate")
		if code != 0 {
			t.Fatalf("exit %d (stderr: %s)", code, stderr)
		}
		for _, w := range []string{
			"status: FAILEDTRYLATER",
			"shed: refused by admission control",
			"retry after: ",
		} {
			if !strings.Contains(stdout, w) {
				t.Errorf("output missing %q:\n%s", w, stdout)
			}
		}
	})
}

// TestQosctlRendersBatchShed: shed batch items carry the (shed) marker and
// a retry hint per item.
func TestQosctlRendersBatchShed(t *testing.T) {
	addr := startShedDaemon(t, false)
	t.Run("auto", func(t *testing.T) {
		stdout, stderr, code := ctl(t, addr, "-docs", "news-1,news-1", "batch")
		if code != 0 {
			t.Fatalf("exit %d (stderr: %s)", code, stderr)
		}
		if got := strings.Count(stdout, "(shed)"); got != 2 {
			t.Errorf("want 2 shed markers, got %d:\n%s", got, stdout)
		}
		if got := strings.Count(stdout, "(retry after "); got != 2 {
			t.Errorf("want 2 retry hints, got %d:\n%s", got, stdout)
		}
	})
}

// TestQosctlReportsBusyError: a wire-level shed surfaces the typed busy
// error, including the hint.
func TestQosctlReportsBusyError(t *testing.T) {
	addr := startShedDaemon(t, true)
	t.Run("auto", func(t *testing.T) {
		stdout, stderr, code := ctl(t, addr, "-doc", "news-1", "negotiate")
		if code != 1 {
			t.Fatalf("exit %d, want 1\nstdout: %s", code, stdout)
		}
		if !strings.Contains(stderr, "server busy") || !strings.Contains(stderr, "retry after") {
			t.Errorf("stderr missing busy diagnosis:\n%s", stderr)
		}
	})
}

// TestQosctlBatchReportsBusyPerDocument: a wire-level shed refuses each
// document's negotiation on its own, so every row is an error naming its
// document with the busy diagnosis and hint, and the batch exits 1.
func TestQosctlBatchReportsBusyPerDocument(t *testing.T) {
	addr := startShedDaemon(t, true)
	stdout, stderr, code := ctl(t, addr, "-docs", "news-1,news-1", "batch")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one row per document, got:\n%s", stdout)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "news-1 ") {
			t.Errorf("row does not name its document: %q", line)
		}
		for _, w := range []string{"error: ", "server busy", "retry after"} {
			if !strings.Contains(line, w) {
				t.Errorf("row missing %q: %q", w, line)
			}
		}
	}
}

// TestQosctlStatsShowsAdmission: after sheds, stats reports both the
// manager's shed count and the controller's gauges.
func TestQosctlStatsShowsAdmission(t *testing.T) {
	addr := startShedDaemon(t, false)
	if _, stderr, code := ctl(t, addr, "-doc", "news-1", "negotiate"); code != 0 {
		t.Fatalf("negotiate: exit %d (stderr: %s)", code, stderr)
	}
	stdout, stderr, code := ctl(t, addr, "stats")
	if code != 0 {
		t.Fatalf("stats: exit %d (stderr: %s)", code, stderr)
	}
	for _, w := range []string{
		"FAILEDTRYLATER 1",
		"admission sheds: 1",
		"admission: ",
		"retry hint",
	} {
		if !strings.Contains(stdout, w) {
			t.Errorf("stats output missing %q:\n%s", w, stdout)
		}
	}
}
