package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"qosneg"
	"qosneg/internal/core"
	"qosneg/internal/telemetry"
)

// TestVerboseLogsEachDecisionOnce runs one negotiation on a system wired the
// way -verbose wires the daemon and checks the log carries every event the
// manager emitted exactly once: the ring behind /debug/trace sees the same
// events, so the two must agree line for line.
func TestVerboseLogsEachDecisionOnce(t *testing.T) {
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	ring := telemetry.NewRing(256)
	options := append(managerOptions(0, core.HealthPolicy{}, true, ring, logf),
		qosneg.WithClients(1), qosneg.WithServers(2))
	sys, err := qosneg.New(options...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddNewsArticle("news-1", "A", time.Minute); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Negotiate(context.Background(), "client-1", "news-1", "tv-quality")
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}

	events := ring.Events()
	if len(lines) != len(events) {
		t.Fatalf("%d log lines for %d events:\n%s", len(lines), len(events), strings.Join(lines, "\n"))
	}
	committed := 0
	for i, e := range events {
		if !strings.HasSuffix(lines[i], e.String()) {
			t.Errorf("line %d = %q, want event %q", i, lines[i], e.String())
		}
		if e.Step == telemetry.StepCommitment && e.Offer == res.Session.Current.Key() {
			committed++
			if e.Status != res.Status.String() {
				t.Errorf("commitment event = %+v, want status %v", e, res.Status)
			}
		}
	}
	if committed != 1 {
		t.Errorf("%d commitment decisions logged for the chosen offer, want 1", committed)
	}
}
