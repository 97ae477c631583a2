package adaptation

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/testbed"
)

// stormBed is adapt-storm's population in miniature: 32 sessions on three
// servers with room to spare, the first `reserved` of them left unconfirmed
// and the rest playing.
func stormBed(t testing.TB, reserved int) *testbed.Bed {
	t.Helper()
	disk := cmfs.DefaultConfig()
	disk.DiskRate = 512 * qos.MBitPerSecond
	disk.SeekTime = 2 * time.Millisecond
	disk.MaxStreams = 256
	b := testbed.MustNew(testbed.Spec{Clients: 4, Servers: 3, ServerConfig: &disk, AccessCapacity: qos.GBitPerSecond})
	if _, err := b.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		res, err := b.Manager.NegotiateContext(context.Background(), b.Client(1+i%4), "news-1", tvProfile())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Status.Reserved() {
			t.Fatalf("session %d: %v (%s)", i, res.Status, res.Reason)
		}
		if i >= reserved {
			if err := b.Manager.Confirm(res.Session.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b
}

// busiest returns the server carrying the most streams.
func busiest(b *testbed.Bed) *cmfs.Server {
	var top *cmfs.Server
	for _, id := range b.ServerIDs() {
		if srv := b.Servers[id]; top == nil || srv.ActiveStreams() > top.ActiveStreams() {
			top = srv
		}
	}
	return top
}

// scanAllocBound is what one violating scan over stormBed(all playing)
// allocates (go1.24, linux/amd64) now that no adaptation allocates per
// step-5 attempt: a plan's refusal is a value, the new hold reuses the
// withdrawn commitment's array, the report is sized once and a violating
// server lists its victims in one slice. Before, the scan took 126
// allocations and 24 976 B; with a reservation→session index, before the
// monitor walked the live sessions, 145 and 53 104 B.
const (
	scanAllocBound      = 28
	scanAllocBytesBound = 15248
)

// TestScanAllocBound holds one violating scan over 32 playing sessions to
// scanAllocBound. Each measurement is on a fresh bed, since a scan moves
// its victims; the least of three is gated.
func TestScanAllocBound(t *testing.T) {
	if testing.CoverMode() != "" || raceDetectorOn {
		t.Skip("instrumented builds allocate differently")
	}
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		b := stormBed(t, 0)
		mon := monitor(b)
		if err := busiest(b).SetDegradation(0.99); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := mon.Scan()
		runtime.ReadMemStats(&after)
		if len(rep.Adapted) == 0 {
			t.Fatalf("scan adapted nothing: %+v", rep)
		}
		n, nb := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		allocs, bytes = min(allocs, n), min(bytes, nb)
		t.Logf("run %d: %d victims, %d adapted: %d allocs, %d B", i, rep.Violations, len(rep.Adapted), n, nb)
	}
	if allocs > scanAllocBound || bytes > scanAllocBytesBound {
		t.Errorf("violating scan: %d allocs, %d B; bound %d allocs, %d B", allocs, bytes, scanAllocBound, scanAllocBytesBound)
	}
}

// recordingAdapts is the manager a monitor sees, remembering the order in
// which the sweep adapted sessions.
type recordingAdapts struct {
	core.SessionManager
	ids []core.SessionID
}

func (r *recordingAdapts) AdaptContext(ctx context.Context, id core.SessionID) (core.Transition, error) {
	r.ids = append(r.ids, id)
	return r.SessionManager.AdaptContext(ctx, id)
}

// TestScanAdaptsPlayingHoldersInIDOrder holds one scan to a brute-force
// reference: every victim reservation is matched against
// every reservation of every live session. The scan must adapt exactly the
// playing holders, in id order, skip each victim a reserved session holds,
// and count every victim as a violation.
func TestScanAdaptsPlayingHoldersInIDOrder(t *testing.T) {
	b := stormBed(t, 8)
	// The server and its link both choke, so a session can hold two
	// victims: one CMFS, one network reservation.
	srv := busiest(b)
	if err := srv.SetDegradation(0.99); err != nil {
		t.Fatal(err)
	}
	if err := b.Network.SetLinkDegradation(network.LinkID("backbone-"+string(srv.ID())+":rev"), 0.99); err != nil {
		t.Fatal(err)
	}
	mon := monitor(b)

	type victim struct {
		server media.ServerID // empty for a network reservation
		id     uint64
	}
	var victims []victim
	for _, srv := range mon.servers {
		for _, r := range srv.Overcommitted() {
			victims = append(victims, victim{srv.ID(), uint64(r.ID)})
		}
	}
	for _, r := range b.Network.Overcommitted() {
		victims = append(victims, victim{"", uint64(r.ID)})
	}
	var wantIDs []core.SessionID
	wantSkipped := 0
	for _, state := range []core.SessionState{core.Reserved, core.Playing} {
		for _, s := range b.Manager.Sessions(state) {
			hit := 0
			s.EachHold(func(server media.ServerID, res cmfs.ReservationID, conn network.ReservationID) {
				for _, v := range victims {
					if (v.server != "" && v.server == server && v.id == uint64(res)) || (v.server == "" && v.id == uint64(conn)) {
						hit++
					}
				}
			})
			switch {
			case state == core.Reserved:
				wantSkipped += hit
			case hit > 0:
				wantIDs = append(wantIDs, s.ID)
			}
		}
	}
	slices.Sort(wantIDs)
	if wantSkipped == 0 || len(wantIDs) < 2 {
		t.Fatalf("%d victims held by %d playing sessions, %d by reserved ones: the scan has too little to order", len(victims), len(wantIDs), wantSkipped)
	}

	rec := &recordingAdapts{SessionManager: b.Manager}
	mon.man = rec
	rep := mon.Scan()
	if rep.Violations != len(victims) || rep.Skipped != wantSkipped || len(rep.Failed) != 0 {
		t.Errorf("report: %d violations, %d skipped, %d failed; want %d, %d, 0", rep.Violations, rep.Skipped, len(rep.Failed), len(victims), wantSkipped)
	}
	if !slices.Equal(rec.ids, wantIDs) {
		t.Errorf("adapted %v, want %v", rec.ids, wantIDs)
	}
	var got []core.SessionID
	for _, tr := range rep.Adapted {
		got = append(got, tr.Session)
	}
	if !slices.Equal(got, wantIDs) {
		t.Errorf("report lists transitions of %v, want %v", got, wantIDs)
	}
}
