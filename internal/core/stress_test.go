package core_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qosneg/internal/core"
	"qosneg/internal/faults"
	"qosneg/internal/ledger"
	"qosneg/internal/sim"
	"qosneg/internal/telemetry"
)

// TestLifecycleStress is the concurrent half of the chaos suite: where
// TestChaosWithFaultInjection drives one operation at a time and checks the
// resource invariant after every step, this harness runs many goroutines
// issuing Confirm/Reject/Expire/Adapt/Renegotiate/Complete/Abort against a
// shared session pool while servers crash and calls fail probabilistically —
// the interleavings the epoch guard exists for. The manager is a 4-shard
// fleet behind an admission controller with fewer slots than workers, so
// the router sheds too. Mid-run state is unobservable under true
// concurrency, so the assertions hold at quiescence: once every session is
// terminal, the resource ledger balances to zero and nothing was ever
// double-released, and each fact counted reads the same in Stats and in
// its metric series.
//
// Run it longer with `make stress` (QOSNEG_STRESS_ITERS scales the per-worker
// operation count).
func TestLifecycleStress(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1996} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runLifecycleStress(t, seed)
		})
	}
}

// checkSessionTableAtFloor is the retention half of the lifecycle invariant:
// once every session is terminal the live table is empty, and what the
// manager still remembers of the sessions fits the tombstone ring.
func checkSessionTableAtFloor(t *testing.T, m *core.Manager) {
	t.Helper()
	if n := m.LiveSessions(); n != 0 {
		t.Errorf("%d sessions still in the live table with every session terminal", n)
	}
	if n := len(m.Sessions(core.Completed)) + len(m.Sessions(core.Aborted)); n > core.TombstoneRing {
		t.Errorf("%d retired sessions remembered, ring holds %d", n, core.TombstoneRing)
	}
}

func stressIters() int {
	if s := os.Getenv("QOSNEG_STRESS_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		return 60
	}
	return 250
}

func runLifecycleStress(t *testing.T, seed int64) {
	inj := faults.New(seed)
	opts := core.DefaultOptions()
	// A cooldown far below the run's wall time, so capacity-full commit
	// failures don't park both servers for the rest of the run.
	opts.Health = core.HealthPolicy{
		FailureThreshold: 6,
		Cooldown:         200 * time.Microsecond,
		RetryAfter:       50 * time.Microsecond,
	}
	reg := telemetry.NewRegistry()
	bed, ctrl, shards := chaosFleet(inj, opts, reg, 6)
	bed.Ledger.OnViolation(func(v string) {
		t.Errorf("seed %d: %s", seed, v)
	})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Land a terminal transition inside every fourth unlock window. Natural
	// preemption rarely hits the microsecond-wide window (and never will on
	// a single-CPU runner), so the harness forces the interleaving the epoch
	// guard exists for; the guard must absorb it leak-free.
	var windows uint64
	for _, man := range shards {
		man.SetTestHookUnlocked(func(op string, id core.SessionID) {
			if atomic.AddUint64(&windows, 1)%4 != 0 {
				return
			}
			if op == "adapt" {
				bed.Manager.Abort(id)
			} else {
				bed.Manager.Expire(id)
			}
		})
	}

	// Shared pool of session ids every worker picks targets from, so the
	// same session sees concurrent Confirm, Abort and Adapt calls.
	var mu sync.Mutex
	var live []core.SessionID
	addLive := func(id core.SessionID) {
		mu.Lock()
		live = append(live, id)
		mu.Unlock()
	}
	pickLive := func(r *sim.Rand) (core.SessionID, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(live) == 0 {
			return 0, false
		}
		return live[r.Intn(len(live))], true
	}

	iters := stressIters()
	workers := 8
	serverIDs := bed.ServerIDs()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		rng := sim.NewRand(seed + int64(w)*7919)
		wg.Add(1)
		go func(rng *sim.Rand) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch rng.Intn(16) {
				case 0, 1, 2, 3: // negotiate; any status is legal under injection
					res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1+rng.Intn(2)), "news-1", chaosProfile())
					if err != nil {
						t.Errorf("seed %d: Negotiate: %v", seed, err)
						return
					}
					if res.Session != nil {
						addLive(res.Session.ID)
					}
				case 4, 5:
					if id, ok := pickLive(rng); ok {
						bed.Manager.Confirm(id)
					}
				case 6:
					if id, ok := pickLive(rng); ok {
						bed.Manager.Reject(id)
					}
				case 7: // the choice-period timer firing mid-anything
					if id, ok := pickLive(rng); ok {
						bed.Manager.Expire(id)
					}
				case 8, 9: // adaptation racing the terminal transitions
					if id, ok := pickLive(rng); ok {
						bed.Manager.Adapt(id)
					}
				case 10: // adaptation under a deadline
					if id, ok := pickLive(rng); ok {
						ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(3))*time.Millisecond)
						bed.Manager.AdaptContext(ctx, id)
						cancel()
					}
				case 11: // renegotiation racing Expire/Reject/Abort
					if id, ok := pickLive(rng); ok {
						bed.Manager.RenegotiateContext(context.Background(), id, chaosProfile())
					}
				case 12: // focused window race: long procedure vs terminal op
					res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1+rng.Intn(2)), "news-1", chaosProfile())
					if err != nil {
						t.Errorf("seed %d: Negotiate: %v", seed, err)
						return
					}
					if res.Session == nil {
						continue
					}
					s := res.Session
					id := s.ID
					addLive(id)
					adapt := rng.Intn(2) == 0
					if adapt && bed.Manager.Confirm(id) != nil {
						continue
					}
					// Fire the terminal op as soon as the session's epoch
					// moves — the procedure's withdrawal bump — so it lands
					// inside the unlock window rather than reliably before
					// or after it. The spin is bounded: every entry-refusal
					// path implies some other transition already bumped the
					// epoch, but a cap keeps a surprise from hanging the
					// test.
					e0 := s.Epoch()
					var race sync.WaitGroup
					race.Add(1)
					terminal := bed.Manager.Abort
					if !adapt {
						terminal = bed.Manager.Expire
					}
					go func() {
						defer race.Done()
						for spin := 0; s.Epoch() == e0 && spin < 1<<22; spin++ {
							runtime.Gosched()
						}
						terminal(id)
					}()
					if adapt {
						bed.Manager.Adapt(id)
					} else {
						bed.Manager.RenegotiateContext(context.Background(), id, chaosProfile())
					}
					race.Wait()
				case 13:
					if id, ok := pickLive(rng); ok {
						bed.Manager.Advance(id, time.Second)
						bed.Manager.Complete(id)
					}
				case 14:
					if id, ok := pickLive(rng); ok {
						bed.Manager.Abort(id)
					}
				case 15: // fault weather: crashes, restarts, failure rates
					id := serverIDs[rng.Intn(len(serverIDs))]
					s, ok := inj.Server(id)
					if !ok {
						continue
					}
					switch rng.Intn(4) {
					case 0:
						s.Crash()
					case 1:
						s.CrashAfterReserves(1 + rng.Intn(2))
					case 2:
						s.Restart()
					default:
						inj.SetReserveFailure(float64(rng.Intn(2)) * 0.2)
						inj.SetConnectFailure(float64(rng.Intn(2)) * 0.15)
					}
				}
			}
		}(rng)
	}
	wg.Wait()

	// Quiescent: no procedure is mid-window, so no two live sessions, on
	// any shard, may hold one reservation.
	if err := core.CheckHoldsDisjoint(bed.Manager); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	checkOneCountPerFact(t, seed, bed, ctrl, reg)

	// Heal the world and wind every session down to a terminal state.
	inj.SetReserveFailure(0)
	inj.SetConnectFailure(0)
	for _, id := range serverIDs {
		inj.Restart(id)
	}
	mu.Lock()
	ids := append([]core.SessionID(nil), live...)
	mu.Unlock()
	for _, id := range ids {
		bed.Manager.Abort(id)
	}
	for _, state := range []core.SessionState{core.Reserved, core.Playing} {
		if ss := bed.Manager.Sessions(state); len(ss) != 0 {
			t.Fatalf("seed %d: %d sessions still %v after wind-down", seed, len(ss), state)
		}
	}

	// The lifecycle invariant: all sessions terminal ⇒ the ledger is empty
	// and the session table is at its floor.
	if err := bed.Ledger.CheckEmpty(); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
	for _, man := range shards {
		checkSessionTableAtFloor(t, man)
	}
	if got := bed.Network.ActiveReservations(); got != 0 {
		t.Errorf("seed %d: %d network reservations leaked", seed, got)
	}
	for id, srv := range bed.Servers {
		if srv.ActiveStreams() != 0 {
			t.Errorf("seed %d: server %s leaked %d streams", seed, id, srv.ActiveStreams())
		}
	}
	if v := reg.Counter(ledger.MetricLeaked, "").Value(); v != 0 {
		t.Errorf("seed %d: %s = %d, want 0", seed, ledger.MetricLeaked, v)
	}
	// Stale installs are the guard doing its job under contention — log the
	// count so a run that never exercised the race is visible.
	checkOneCountPerFact(t, seed, bed, ctrl, reg)
	st := bed.Manager.Stats()
	t.Logf("seed %d: %d sessions, %d adaptations, %d stale installs, %d sheds",
		seed, len(ids), st.Adaptations, st.StaleInstalls, st.AdmissionSheds)
}
