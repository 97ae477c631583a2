package protocol

import (
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/faults"
	"qosneg/internal/qos"
	"qosneg/internal/testbed"
)

// TestWireFailoverWithCrashedReplica is the acceptance scenario end to end
// over the wire: one of two replica servers is crashed, yet negotiation
// still reserves through the survivor, and the metrics snapshot reports the
// dead server's quarantine to the operator.
func TestWireFailoverWithCrashedReplica(t *testing.T) {
	inj := faults.New(3)
	h, _ := daemonHarness(t, testbed.Spec{Faults: inj})
	c := h.dial(t)

	if !inj.Crash("server-1") {
		t.Fatal("server-1 not wrapped")
	}
	res, err := c.Negotiate(bg, h.bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.Reserved() {
		t.Fatalf("status = %v (%s); want failover onto server-2", res.Status, res.Reason)
	}
	if res.RetryAfter != 0 {
		t.Errorf("reserved result carries RetryAfter %v", res.RetryAfter)
	}
	if err := c.Confirm(bg, res.Session); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	until := gauges(snap, core.MetricQuarantined)["server-1"]
	down := snap.CounterValue(core.MetricDownFailures, "server-1")
	if until <= time.Now().Unix() || down == 0 {
		t.Errorf("server-1 quarantine not visible over the wire: quarantined until %d, %d down failures", until, down)
	}
	if n := gauges(snap, cmfs.MetricActiveStreams)["server-1"]; n != 0 {
		t.Errorf("crashed server reports %d streams", n)
	}

	if snap.CounterValue(core.MetricCommitFailures, core.CauseServerDown.String()) == 0 || snap.CounterValue(core.MetricQuarantines, "") == 0 {
		t.Errorf("metrics over the wire = %+v; want server-down and quarantine counters", snap.Counters)
	}
}

// TestWireShortageRetryAfter: a genuine full shortage comes back as
// FAILEDTRYLATER with a non-zero RetryAfter hint carried through the wire
// protocol.
func TestWireShortageRetryAfter(t *testing.T) {
	cfg := cmfs.Config{
		DiskRate:    64 * qos.KBitPerSecond,
		SeekTime:    time.Millisecond,
		RoundLength: time.Second,
		MaxStreams:  1,
	}
	bed := testbed.MustNew(testbed.Spec{ServerConfig: &cfg})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 90*time.Second); err != nil {
		t.Fatal(err)
	}
	h := serveHarness(t, bed)
	c := h.dial(t)

	res, err := c.Negotiate(bg, bed.Client(1), "news-1", tvProfile(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.FailedTryLater {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	if res.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v; the hint was lost on the wire", res.RetryAfter)
	}
	if res.Session != 0 {
		t.Errorf("FAILEDTRYLATER carried session %d", res.Session)
	}
}
