package main

import (
	"context"
	"flag"
	"io"
	"testing"

	"qosneg/internal/core"
	"qosneg/internal/telemetry"
)

// TestReadmeFailoverSample builds the daemon's system from exactly the flags
// of README.md's fault-injection sample and negotiates news-1 as `qosctl
// -doc news-1 negotiate` does (client-1, the tv-quality profile): the
// negotiation succeeds through the surviving replica, server-2, and the
// crashed server-1 is quarantined, as the sample promises.
func TestReadmeFailoverSample(t *testing.T) {
	fs := flag.NewFlagSet("qosnegd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := defineFlags(fs)
	args := []string{"-addr", ":7000", "-fault-seed", "7", "-fault-crash", "server-1", "-fault-reserve-failure", "0.1", "-verbose"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sys, err := newSystem(f, telemetry.NewRegistry(), telemetry.NewRing(f.traceDepth), func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Negotiate(context.Background(), "client-1", "news-1", "tv-quality")
	if err != nil || res.Status != core.Succeeded {
		t.Fatalf("negotiate news-1: %v %v (%s); the sample promises SUCCEEDED", res.Status, err, res.Reason)
	}
	for _, c := range res.Session.Current.Choices {
		if c.Variant.Server != "server-2" {
			t.Errorf("%s is served by %s, want the surviving replica server-2", c.Monomedia, c.Variant.Server)
		}
	}
	if _, q := sys.Manager.Quarantined("server-1"); !q {
		t.Error("the crashed server-1 is not quarantined")
	}
}
