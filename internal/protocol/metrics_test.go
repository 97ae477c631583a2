package protocol

import (
	"fmt"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
)

// daemonHarness serves spec's bed, holding news-1, with one telemetry
// registry across its manager fleet, its CMFS servers and the protocol
// server, as qosneg.New wires a daemon: MsgMetrics answers with every
// series an operator reads.
func daemonHarness(t *testing.T, spec testbed.Spec) (*harness, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts := core.DefaultOptions()
	opts.Metrics = reg
	spec.Options = &opts
	bed := testbed.MustNew(spec)
	for _, s := range bed.Servers {
		s.Instrument(reg)
	}
	if _, err := bed.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bed.Manager, bed.Registry)
	srv.Instrument(reg)
	return startHarness(t, bed, srv), reg
}

// gauges reads the snapshot's series of one gauge by label value ("" for
// an unlabeled gauge).
func gauges(snap telemetry.Snapshot, name string) map[string]int64 {
	out := map[string]int64{}
	for _, g := range snap.Gauges {
		if g.Name != name {
			continue
		}
		if g.Labels == nil {
			out[""] = g.Value
		}
		for _, v := range g.Labels {
			out[v] = g.Value
		}
	}
	return out
}

func TestMetricsOverWire(t *testing.T) {
	h, reg := daemonHarness(t, testbed.Spec{})
	c := h.dial(t)
	c.Instrument(reg, nil)

	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Succeeded {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if err := c.Reject(bg, res.Session); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	// Server-side RPC latency for the negotiate round must be on the wire
	// snapshot; by the time MsgMetrics is answered, at least negotiate and
	// reject have been timed.
	h8, ok := snap.Find("qosneg_rpc_server_seconds", string(MsgNegotiate))
	if !ok || h8.Count != 1 {
		t.Fatalf("rpc_server_seconds{negotiate} = %+v ok=%v, want one observation", h8, ok)
	}
	if got := snap.CounterValue("qosneg_rpc_server_errors_total", ""); got != 0 {
		t.Fatalf("server errors = %d, want 0", got)
	}
	// The shared registry also accumulated the client's own RPC series.
	if _, ok := snap.Find("qosneg_rpc_client_seconds", string(MsgNegotiate)); !ok {
		t.Fatalf("snapshot missing client RPC histogram")
	}

	// A failing RPC bumps the server error counter.
	if _, err := c.Session(bg, core.SessionID(9999)); err == nil {
		t.Fatalf("expected error for unknown session")
	}
	snap, err = c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.CounterValue("qosneg_rpc_server_errors_total", string(MsgSession)); got != 1 {
		t.Fatalf("server errors{session} = %d, want 1", got)
	}
	if got := snap.CounterValue("qosneg_rpc_client_errors_total", string(MsgSession)); got != 1 {
		t.Fatalf("client errors{session} = %d, want 1", got)
	}
	// The client was instrumented after it connected, as System.Dial does:
	// its connection and redial counts are its own, read at Snapshot.
	for name, want := range map[string]uint64{
		"qosneg_client_connections_total": 1,
		"qosneg_client_redials_total":     0,
		"qosneg_server_connections_total": 1,
	} {
		if got := snap.CounterValue(name, ""); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestWireGaugesAtAnInstant reads the live-connection and live-stream
// gauges twice: a metrics read over the wire sees its own connection and
// its own stream on both ends, and once the client has closed and the
// handler has exited all three read 0.
func TestWireGaugesAtAnInstant(t *testing.T) {
	h, reg := daemonHarness(t, testbed.Spec{})
	c := h.dial(t)
	c.Instrument(reg, nil)
	wire := []string{"qosneg_server_connections", "qosneg_server_streams", "qosneg_client_streams"}
	snap, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range wire {
		if got, ok := gauges(snap, name)[""]; !ok || got != 1 {
			t.Errorf("%s = %d (found %v) during the metrics read, want 1", name, got, ok)
		}
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := reg.Snapshot()
		var open []string
		for _, name := range wire {
			if got := gauges(snap, name)[""]; got != 0 {
				open = append(open, fmt.Sprintf("%s = %d", name, got))
			}
		}
		if len(open) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the client closed: %v, want all 0", open)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMetricsUninstrumentedDaemon(t *testing.T) {
	h := newHarness(t)
	c := h.dial(t)
	snap, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("uninstrumented daemon returned non-empty snapshot: %+v", snap)
	}
}
