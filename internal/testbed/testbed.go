// Package testbed assembles the full news-on-demand prototype substrate —
// registry, CMFS servers, network, transport, client machines and the QoS
// manager — into ready-to-use configurations for tests, examples and the
// experiment harness. It is the reproduction's equivalent of the CITR
// integration prototype described in the paper's introduction.
package testbed

import (
	"fmt"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/registry"
	"qosneg/internal/transport"
)

// Bed is an assembled prototype.
type Bed struct {
	Registry *registry.Registry
	Network  *network.Network
	Transit  *transport.System
	// Manager is the QoS manager: one manager over the bed's shared
	// servers and network.
	Manager *core.Manager
	// Fleet answers the manager-fleet calls the benchmark module still
	// makes, for Manager (ROADMAP item 7a deletes it).
	Fleet   *Fleet
	Servers map[media.ServerID]*cmfs.Server
	Clients map[client.MachineID]client.Machine
	Pricing cost.Pricing
	// Faults is the injector the bed was assembled with (Spec.Faults),
	// nil otherwise.
	Faults *faults.Injector
	// Ledger reads the reservation tables of the bed's CMFS servers and
	// network (a connection is its network reservation), and reports every
	// network release of an unknown id. It is always installed:
	// Ledger.CheckEmpty after winding all sessions down proves nothing
	// leaked.
	Ledger *ledger.Ledger
}

// Spec parameterizes New.
type Spec struct {
	// Clients is the number of client workstations (default 2).
	Clients int
	// Servers is the number of CMFS servers (default 2).
	Servers int
	// ServerConfig overrides the CMFS disk model (default
	// cmfs.DefaultConfig).
	ServerConfig *cmfs.Config
	// AccessCapacity overrides the star topology's access-link capacity.
	AccessCapacity qos.BitRate
	// Options overrides the QoS manager options.
	Options *core.Options
	// Pricing overrides the default cost tables.
	Pricing *cost.Pricing
	// Faults, when non-nil, wraps every CMFS server and the transport
	// system with the fault injector before they are registered with the
	// manager, so crashes and injected failures can be driven at runtime.
	// Bed.Servers still holds the raw servers.
	Faults *faults.Injector
}

// New assembles a star-topology prototype: clients client-1..N and servers
// server-1..M around one switch, each server fronted by a CMFS instance,
// with the default cost tables.
func New(spec Spec) (*Bed, error) {
	if spec.Clients <= 0 {
		spec.Clients = 2
	}
	if spec.Servers <= 0 {
		spec.Servers = 2
	}
	cfg := cmfs.DefaultConfig()
	if spec.ServerConfig != nil {
		cfg = *spec.ServerConfig
	}
	var clientNodes, serverNodes []network.NodeID
	for i := 1; i <= spec.Clients; i++ {
		clientNodes = append(clientNodes, network.NodeID(fmt.Sprintf("client-%d", i)))
	}
	for i := 1; i <= spec.Servers; i++ {
		serverNodes = append(serverNodes, network.NodeID(fmt.Sprintf("server-%d", i)))
	}
	net, err := network.BuildStar(network.StarSpec{
		Clients:        clientNodes,
		Servers:        serverNodes,
		AccessCapacity: spec.AccessCapacity,
	})
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	if spec.Options != nil {
		opts = *spec.Options
	}
	pricing := cost.DefaultPricing()
	if spec.Pricing != nil {
		pricing = *spec.Pricing
	}
	led := ledger.New()
	bed := &Bed{
		Registry: registry.New(),
		Network:  net,
		Servers:  make(map[media.ServerID]*cmfs.Server),
		Clients:  make(map[client.MachineID]client.Machine),
		Pricing:  pricing,
		Ledger:   led,
	}
	net.SetLedger(led)
	bed.Transit = transport.New(net, opts.PathAlternates)
	bed.Faults = spec.Faults
	var ts core.Transport = bed.Transit
	if spec.Faults != nil {
		ts = spec.Faults.WrapTransport(ts)
	}
	bed.Manager = core.NewManager(bed.Registry, ts, bed.Pricing, opts)
	bed.Fleet = &Fleet{bed.Manager}
	for _, node := range serverNodes {
		srv, err := cmfs.NewServer(media.ServerID(node), cfg)
		if err != nil {
			return nil, err
		}
		srv.SetLedger(led)
		bed.Servers[srv.ID()] = srv
		var ms core.MediaServer = srv
		if spec.Faults != nil {
			ms = spec.Faults.WrapServer(srv, node)
		}
		bed.Manager.AddServer(ms, node)
	}
	for _, node := range clientNodes {
		c := client.Workstation(client.MachineID(node), node)
		bed.Clients[c.ID] = c
	}
	return bed, nil
}

// Fleet answers the manager-fleet calls of the benchmark module for
// Bed.Manager, as one shard. It stays only because the benchmark module
// calls it; ROADMAP item 7a re-founds the benchmark on the system that
// exists and deletes it.
type Fleet struct{ m *core.Manager }

// FleetStat is the row ShardStats returns.
type FleetStat struct {
	Shard int
	// Sessions counts the manager's live (reserved or playing) sessions.
	Sessions int
	Stats    core.Stats
	// BusLag always reads 0.
	BusLag uint64
}

// Shards returns 1.
func (f *Fleet) Shards() int { return 1 }

// ShardStats returns the manager's one row.
func (f *Fleet) ShardStats() []FleetStat {
	return []FleetStat{{Sessions: f.m.LiveSessions(), Stats: f.m.Stats()}}
}

// Sync does nothing.
func (f *Fleet) Sync() {}

// MustNew is New that panics on error.
func MustNew(spec Spec) *Bed {
	b, err := New(spec)
	if err != nil {
		panic(err)
	}
	return b
}

// ServerIDs returns the bed's server ids in index order.
func (b *Bed) ServerIDs() []media.ServerID {
	out := make([]media.ServerID, 0, len(b.Servers))
	for i := 1; ; i++ {
		id := media.ServerID(fmt.Sprintf("server-%d", i))
		if _, ok := b.Servers[id]; !ok {
			break
		}
		out = append(out, id)
	}
	return out
}

// Client returns the machine client-<n>.
func (b *Bed) Client(n int) client.Machine {
	return b.Clients[client.MachineID(fmt.Sprintf("client-%d", n))]
}

// AddNewsArticle builds and registers a standard news article spread across
// the bed's servers; see media.BuildNewsArticle for the variant layout.
func (b *Bed) AddNewsArticle(id media.DocumentID, title string, duration time.Duration) (media.Document, error) {
	doc := media.BuildNewsArticle(media.NewsArticleSpec{
		ID:       id,
		Title:    title,
		Duration: duration,
		Servers:  b.ServerIDs(),
		VideoQualities: []qos.VideoQoS{
			{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution},
			{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.BlackWhite, FrameRate: 15, Resolution: qos.TVResolution},
		},
		AudioQualities: []qos.AudioQoS{
			{Grade: qos.CDQuality, Language: qos.English},
			{Grade: qos.TelephoneQuality, Language: qos.English},
		},
		Languages:    []qos.Language{qos.English, qos.French},
		CopyrightFee: 500,
	})
	if err := b.Registry.Add(doc); err != nil {
		return media.Document{}, err
	}
	return doc, nil
}
