package core

import (
	"context"
	"runtime"
	"testing"
)

// TestSteadyStateHeapFlat is the bounded-retention gate: a manager that
// negotiates and rejects forever must not grow. It runs 100k cycles on one
// manager and compares the live heap after the 10k-th (caches warm, tombstone
// ring full) with the live heap after the last; a session table that keeps
// terminal sessions grows by ~3 KB a cycle and fails it a hundredfold.
func TestSteadyStateHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("100k negotiations")
	}
	b := defaultBed(t)
	u := tvProfile()
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const cycles, warm, maxGrowth = 100_000, 10_000, 1 << 20
	var base uint64
	for i := 1; i <= cycles; i++ {
		res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
		if err != nil || res.Session == nil {
			t.Fatalf("cycle %d: negotiate: %v (%v)", i, err, res.Status)
		}
		if err := b.man.Reject(res.Session.ID); err != nil {
			t.Fatalf("cycle %d: reject: %v", i, err)
		}
		if i == warm {
			base = liveHeap()
		}
	}
	end := liveHeap()
	if end > base+maxGrowth {
		t.Errorf("live heap grew from %d to %d bytes between cycle %d and cycle %d, want <= %d bytes of growth",
			base, end, warm, cycles, maxGrowth)
	}
	if live, tombs := b.man.LiveSessions(), len(b.man.tombs); live != 0 || tombs != TombstoneRing {
		t.Errorf("%d live sessions and %d tombstones after %d rejected negotiations, want 0 and %d", live, tombs, cycles, TombstoneRing)
	}
	checkLedgerEmpty(t, b)
}
