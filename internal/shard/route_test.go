package shard

import (
	"testing"

	"qosneg/internal/core"
)

// Every id a shard allocates must route back to that shard, the ids of a
// fleet must be unique, and a single-shard fleet must allocate 1, 2, 3, …
// like a bare manager.
func TestRoutingRoundTrip(t *testing.T) {
	for n := 1; n <= 8; n++ {
		f := New(Config{Shards: n, Options: core.DefaultOptions()})
		seen := make(map[core.SessionID]bool)
		for i, sh := range f.shards {
			for k := 0; k < 100; k++ {
				id := sh.NextSessionID()
				if seen[id] {
					t.Fatalf("%d shards: id %d allocated twice", n, id)
				}
				seen[id] = true
				if got := f.route(id); got != sh.mgr {
					t.Fatalf("%d shards: id %d allocated by shard %d routes elsewhere", n, id, i)
				}
				if n == 1 && id != core.SessionID(k+1) {
					t.Fatalf("single shard allocated %d, want %d", id, k+1)
				}
			}
		}
	}
}

// Sequential session ids must spread evenly: no shard may hold more than a
// small multiple of its fair share. Strided ids make the split exact.
func TestRoutingBalance(t *testing.T) {
	const sessions = 100_000
	for _, n := range []int{2, 4, 8} {
		f := New(Config{Shards: n, Options: core.DefaultOptions()})
		counts := make(map[*core.Manager]int, n)
		for id := 1; id <= sessions; id++ {
			counts[f.route(core.SessionID(id))]++
		}
		fair := sessions / n
		for i, sh := range f.shards {
			if c := counts[sh.mgr]; c < fair*9/10 || c > fair*11/10 {
				t.Errorf("%d shards: shard %d holds %d of %d sessions (fair share %d)",
					n, i, c, sessions, fair)
			}
		}
	}
}

// A single-shard fleet must route everything to shard 0 — the degenerate
// case the shards=1 equivalence test relies on.
func TestRoutingSingleShard(t *testing.T) {
	f := New(Config{Shards: 1, Options: core.DefaultOptions()})
	for id := 0; id < 1000; id++ {
		if got := f.route(core.SessionID(id)); got != f.shards[0].mgr {
			t.Fatalf("route(%d) on one shard is not shard 0", id)
		}
	}
}
