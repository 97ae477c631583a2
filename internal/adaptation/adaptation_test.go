package adaptation

import (
	"context"
	"sync"
	"testing"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/faults"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/sim"
	"qosneg/internal/testbed"
)

func tvProfile() profile.UserProfile {
	return profile.UserProfile{
		Name: "tv",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Importance: profile.DefaultImportance(),
	}
}

func playing(t *testing.T, b *testbed.Bed) *core.Session {
	t.Helper()
	if _, err := b.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	res, err := b.Manager.NegotiateContext(context.Background(), b.Client(1), "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.Reserved() {
		t.Fatalf("negotiation: %v (%s)", res.Status, res.Reason)
	}
	if err := b.Manager.Confirm(res.Session.ID); err != nil {
		t.Fatal(err)
	}
	return res.Session
}

func monitor(b *testbed.Bed) *Monitor {
	servers := make([]*cmfs.Server, 0, len(b.Servers))
	for _, id := range b.ServerIDs() {
		servers = append(servers, b.Servers[id])
	}
	return New(b.Manager, b.Network, servers...)
}

func TestScanCleanSystem(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	playing(t, b)
	rep := monitor(b).Scan()
	if rep.Violations != 0 || len(rep.Adapted) != 0 || len(rep.Failed) != 0 {
		t.Errorf("clean system report: %+v", rep)
	}
}

func TestScanAdaptsDegradedServer(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	s := playing(t, b)
	b.Manager.Advance(s.ID, 30*time.Second)
	videoServer := s.Current.Choices[0].Variant.Server
	if err := b.Servers[videoServer].SetDegradation(0.99); err != nil {
		t.Fatal(err)
	}
	rep := monitor(b).Scan()
	if rep.Violations == 0 {
		t.Fatal("no violations detected")
	}
	if len(rep.Adapted) != 1 {
		t.Fatalf("adapted = %d (report %+v)", len(rep.Adapted), rep)
	}
	if rep.Adapted[0].Session != s.ID {
		t.Errorf("adapted wrong session")
	}
	if s.State() != core.Playing || s.Transitions() != 1 {
		t.Errorf("session state=%v transitions=%d", s.State(), s.Transitions())
	}
	if s.Position() != 30*time.Second {
		t.Errorf("position lost: %v", s.Position())
	}
	// A second scan finds a healthy system.
	rep2 := monitor(b).Scan()
	if len(rep2.Adapted) != 0 {
		t.Errorf("second scan adapted again: %+v", rep2)
	}
}

func TestScanReportsFailures(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	s := playing(t, b)
	for _, srv := range b.Servers {
		srv.SetDegradation(0.999)
	}
	rep := monitor(b).Scan()
	if len(rep.Failed) != 1 || rep.Failed[0] != s.ID {
		t.Fatalf("failed = %v", rep.Failed)
	}
	if s.State() != core.Aborted {
		t.Errorf("state = %v", s.State())
	}
}

// completingManager completes each session just before adapting it: the
// interleaving a wall-clock player produces when a session reaches its end
// between the sweep's state check and its adaptation.
type completingManager struct{ core.SessionManager }

func (m completingManager) AdaptContext(ctx context.Context, id core.SessionID) (core.Transition, error) {
	if err := m.Complete(id); err != nil {
		return core.Transition{}, err
	}
	return m.SessionManager.AdaptContext(ctx, id)
}

// A session that completed before its adaptation ran was not a failed
// adaptation: nothing was aborted, so the report skips it and agrees with
// the manager's failure count.
func TestScanSkipsSessionThatLeftPlaying(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	s := playing(t, b)
	for _, srv := range b.Servers {
		srv.SetDegradation(0.999)
	}
	before := b.Manager.Stats().AdaptationFailures
	mon := monitor(b)
	mon.man = completingManager{b.Manager}
	rep := mon.Scan()
	if len(rep.Failed) != 0 || rep.Skipped != 1 {
		t.Fatalf("report %+v, want no failure and one skip", rep)
	}
	if rise := b.Manager.Stats().AdaptationFailures - before; rise != len(rep.Failed) {
		t.Errorf("AdaptationFailures rose by %d, report lists %d failures", rise, len(rep.Failed))
	}
	if s.State() != core.Completed {
		t.Errorf("state = %v", s.State())
	}
}

func TestScanSkipsReservedSessions(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	if _, err := b.AddNewsArticle("news-1", "T", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	res, err := b.Manager.NegotiateContext(context.Background(), b.Client(1), "news-1", tvProfile())
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	// Reserved, not confirmed. Degrade its server.
	videoServer := res.Session.Current.Choices[0].Variant.Server
	b.Servers[videoServer].SetDegradation(0.99)
	rep := monitor(b).Scan()
	if rep.Skipped == 0 {
		t.Errorf("reserved session not skipped: %+v", rep)
	}
	if len(rep.Adapted) != 0 {
		t.Error("reserved session adapted")
	}
	if res.Session.State() != core.Reserved {
		t.Errorf("state = %v", res.Session.State())
	}
}

func TestAttachPeriodicScan(t *testing.T) {
	b := testbed.MustNew(testbed.Spec{})
	s := playing(t, b)
	eng := sim.NewEngine()
	var reports []Report
	stop := monitor(b).Attach(eng, func(r Report) { reports = append(reports, r) })

	// Inject degradation at t=12s; the scan at t=15s must catch it.
	eng.MustSchedule(12*time.Second, func() {
		videoServer := s.Current.Choices[0].Variant.Server
		b.Servers[videoServer].SetDegradation(0.99)
	})
	eng.Run(30 * time.Second)
	if len(reports) == 0 {
		t.Fatal("no violation reports")
	}
	if s.Transitions() != 1 {
		t.Errorf("transitions = %d", s.Transitions())
	}
	stop()
	pendingBefore := eng.Pending()
	eng.Run(60 * time.Second)
	_ = pendingBefore
	if s.Transitions() != 1 {
		t.Errorf("stopped monitor kept adapting")
	}
}

// TestAttachStopCancelsInFlightSweep pins the cancellation path from
// Attach's stop function into an in-flight sweep. Two sessions play off the
// same degraded substrate and every Reserve/Connect stalls behind injected
// latency, so the sweep that starts before stop() is still mid-commit when
// the cancellation lands: the first session's adaptation is cut short and
// the later session must be left alone (skipped for a sweep that will never
// come), not adapted by a monitor that was already stopped.
func TestAttachStopCancelsInFlightSweep(t *testing.T) {
	inj := faults.New(7)
	b := testbed.MustNew(testbed.Spec{Faults: inj})
	if _, err := b.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	var sessions []*core.Session
	for i := 1; i <= 2; i++ {
		res, err := b.Manager.NegotiateContext(context.Background(), b.Client(i), "news-1", tvProfile())
		if err != nil || !res.Status.Reserved() {
			t.Fatalf("negotiate %d: %v %v", i, res.Status, err)
		}
		if err := b.Manager.Confirm(res.Session.ID); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, res.Session)
	}
	s1, s2 := sessions[0], sessions[1]
	if s2.ID < s1.ID {
		s1, s2 = s2, s1 // the sweep adapts in id order; s2 is the later victim
	}
	// Both sessions' video servers degrade, so both are victims of the same
	// sweep; every subsequent Reserve/Connect pays a long injected latency,
	// so the first adaptation is still stalled in commitment when stop()
	// fires.
	b.Servers[s1.Current.Choices[0].Variant.Server].SetDegradation(0.99)
	if vs2 := s2.Current.Choices[0].Variant.Server; vs2 != s1.Current.Choices[0].Variant.Server {
		b.Servers[vs2].SetDegradation(0.99)
	}
	inj.SetLatency(300 * time.Millisecond)

	eng := sim.NewEngine()
	mon := monitor(b)
	started := &adaptStarted{SessionManager: b.Manager, ch: make(chan struct{})}
	mon.man = started
	stop := mon.Attach(eng, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Run(6 * time.Second) // one tick, at virtual t=5s
	}()
	<-started.ch // the sweep has begun adapting the first victim
	stop()
	<-done

	if got := s2.Transitions(); got != 0 {
		t.Fatalf("stop() did not cancel the in-flight sweep: later session adapted %d times", got)
	}
	if st := s2.State(); st != core.Playing {
		t.Fatalf("later session state = %v, want Playing (left for a sweep that never came)", st)
	}
}

// adaptStarted is the manager a monitor sees, with a signal: ch closes when
// the first adaptation begins.
type adaptStarted struct {
	core.SessionManager
	once sync.Once
	ch   chan struct{}
}

func (a *adaptStarted) AdaptContext(ctx context.Context, id core.SessionID) (core.Transition, error) {
	a.once.Do(func() { close(a.ch) })
	return a.SessionManager.AdaptContext(ctx, id)
}
