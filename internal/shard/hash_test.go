package shard

import (
	"testing"

	"qosneg/internal/core"
)

// Growing the fleet from n to n+1 shards must move roughly 1/(n+1) of the
// session population, and every moved session must land on the new shard —
// never migrate between surviving shards. This is the consistent-hash
// property the router's resharding story rests on.
func TestRoutingStabilityUnderGrowth(t *testing.T) {
	const sessions = 200_000
	for n := 1; n <= 8; n++ {
		moved := 0
		for id := 1; id <= sessions; id++ {
			before := shardOf(core.SessionID(id), n)
			after := shardOf(core.SessionID(id), n+1)
			if before == after {
				continue
			}
			if after != n {
				t.Fatalf("%d->%d shards: session %d moved %d -> %d (not the new shard %d)",
					n, n+1, id, before, after, n)
			}
			moved++
		}
		want := float64(sessions) / float64(n+1)
		if f := float64(moved); f < 0.9*want || f > 1.1*want {
			t.Errorf("%d->%d shards: %d sessions moved, want ~%.0f (1/(n+1) of %d)",
				n, n+1, moved, want, sessions)
		}
	}
}

// Sequential session ids must spread evenly: no shard may hold more than a
// small multiple of its fair share. Without the splitmix64 finalizer jump
// hash lands consecutive keys in runs and this fails badly.
func TestRoutingBalance(t *testing.T) {
	const sessions = 100_000
	for _, n := range []int{2, 4, 8} {
		counts := make([]int, n)
		for id := 1; id <= sessions; id++ {
			counts[shardOf(core.SessionID(id), n)]++
		}
		fair := sessions / n
		for i, c := range counts {
			if c < fair*9/10 || c > fair*11/10 {
				t.Errorf("%d shards: shard %d holds %d of %d sessions (fair share %d)",
					n, i, c, sessions, fair)
			}
		}
	}
}

// A single-shard fleet must route everything to shard 0 — the degenerate
// case the shards=1 equivalence test relies on.
func TestRoutingSingleShard(t *testing.T) {
	for id := 0; id < 1000; id++ {
		if s := shardOf(core.SessionID(id), 1); s != 0 {
			t.Fatalf("shardOf(%d, 1) = %d, want 0", id, s)
		}
	}
}
