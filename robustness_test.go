package qosneg

import (
	"context"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/faults"
)

// TestSystemFaultInjectionFailover wires the fault injector through the
// facade: with one replica crashed, negotiation succeeds on the survivor
// and the crashed server is quarantined.
func TestSystemFaultInjectionFailover(t *testing.T) {
	inj := faults.New(11)
	sys, err := New(
		WithClients(1),
		WithServers(2),
		WithFaultInjector(inj),
		WithHealthPolicy(core.HealthPolicy{FailureThreshold: 2, Cooldown: time.Minute}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Faults != inj {
		t.Fatal("System.Faults not populated")
	}
	doc, err := sys.AddNewsArticle("news-1", "Election night", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Crash("server-1") {
		t.Fatal("server-1 not wrapped by the injector")
	}
	res, err := sys.Negotiate(context.Background(), "client-1", doc.ID, "tv-quality")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.Reserved() {
		t.Fatalf("status = %v (%s); want failover onto server-2", res.Status, res.Reason)
	}
	if _, ok := sys.Manager.Quarantined("server-1"); !ok {
		t.Error("crashed server not quarantined")
	}
	sys.Manager.Reject(res.Session.ID)
}

// TestSystemRetryPolicyDial: System.Dial's initial dial is one attempt, so
// a dead address fails instead of hanging in the retry policy.
func TestSystemRetryPolicyDial(t *testing.T) {
	sys, err := New(WithClients(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Dial(context.Background(), "127.0.0.1:1"); err == nil {
		t.Fatal("Dial to a dead address succeeded")
	}
}
