package testbed

import (
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	mediapkg "qosneg/internal/media"
	"qosneg/internal/qos"
)

func TestDefaults(t *testing.T) {
	b, err := New(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Servers) != 2 || len(b.Clients) != 2 {
		t.Errorf("defaults: %d servers, %d clients", len(b.Servers), len(b.Clients))
	}
	if n := b.Fleet.Shards(); n != 1 {
		t.Errorf("defaults: %d shards, want 1", n)
	}
	if b.Manager != core.SessionManager(b.Fleet) {
		t.Error("defaults: Manager does not hold the fleet")
	}
	ids := b.ServerIDs()
	if len(ids) != 2 || ids[0] != "server-1" || ids[1] != "server-2" {
		t.Errorf("ServerIDs = %v", ids)
	}
	c := b.Client(1)
	if c.ID != "client-1" || c.Node != "client-1" {
		t.Errorf("Client(1) = %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("client invalid: %v", err)
	}
}

func TestCustomSpec(t *testing.T) {
	cfg := cmfs.Config{DiskRate: qos.MBitPerSecond, SeekTime: time.Millisecond, RoundLength: time.Second, MaxStreams: 2}
	opts := core.DefaultOptions()
	opts.ChoicePeriod = 5 * time.Second
	b, err := New(Spec{
		Clients:          3,
		Servers:          4,
		ServerConfig:     &cfg,
		AccessCapacity:   5 * qos.MBitPerSecond,
		BackboneCapacity: 50 * qos.MBitPerSecond,
		Options:          &opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Servers) != 4 || len(b.Clients) != 3 {
		t.Errorf("custom: %d servers, %d clients", len(b.Servers), len(b.Clients))
	}
	if got := b.Servers["server-1"].Config().DiskRate; got != qos.MBitPerSecond {
		t.Errorf("server config not applied: %v", got)
	}
	if avail, ok := b.Network.Available("access-client-1:fwd"); !ok || avail != 5*qos.MBitPerSecond {
		t.Errorf("access capacity = %v, %v", avail, ok)
	}
}

func TestAddNewsArticleSpreadsVariants(t *testing.T) {
	b := MustNew(Spec{Servers: 3})
	doc, err := b.AddNewsArticle("news-1", "Title", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Registry.Len() != 1 {
		t.Error("document not registered")
	}
	servers := map[string]bool{}
	for _, m := range doc.Monomedia {
		for _, v := range m.Variants {
			servers[string(v.Server)] = true
		}
	}
	if len(servers) < 2 {
		t.Errorf("variants concentrated on %v", servers)
	}
	// Every referenced server is a bed server the manager knows.
	for s := range servers {
		if _, ok := b.Servers[mediapkg.ServerID(s)]; !ok {
			t.Errorf("variant on unknown server %s", s)
		}
	}
}
