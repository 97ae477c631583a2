package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"qosneg/internal/cost"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

func store(t *testing.T) *profile.Store {
	t.Helper()
	s := profile.NewStore()
	for _, p := range profile.DefaultProfiles() {
		if err := s.Save(p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestRenderMainWindow(t *testing.T) {
	s := store(t)
	out := RenderMain(s, "premium")
	for _, want := range []string{"Main window", "tv-quality (default)", "> premium", "[OK]", "[EXIT]"} {
		if !strings.Contains(out, want) {
			t.Errorf("main window missing %q:\n%s", want, out)
		}
	}
}

func TestRenderComponentsRedFlags(t *testing.T) {
	s := store(t)
	u, _ := s.Get("tv-quality")
	out := RenderComponents(u, map[string]bool{"video": true})
	if !strings.Contains(out, "[RED]") {
		t.Errorf("red flag missing:\n%s", out)
	}
	// The red flag is on the video row.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "video") && !strings.Contains(line, "[RED]") {
			t.Errorf("video row not flagged: %s", line)
		}
		if strings.Contains(line, "audio") && strings.Contains(line, "[RED]") {
			t.Errorf("audio row wrongly flagged: %s", line)
		}
	}
}

func TestRenderVideoProfileBars(t *testing.T) {
	s := store(t)
	u, _ := s.Get("tv-quality")
	out := RenderVideoProfile(u, nil)
	for _, want := range []string{"Video profile", "frame rate", "resolution", "D", "m", "[show example]"} {
		if !strings.Contains(out, want) {
			t.Errorf("video profile missing %q:\n%s", want, out)
		}
	}
	// With an offer, the offer marker and line appear.
	offer := &qos.VideoQoS{Color: qos.Grey, FrameRate: 20, Resolution: 480}
	out = RenderVideoProfile(u, offer)
	if !strings.Contains(out, "offer") || !strings.Contains(out, "grey") {
		t.Errorf("offer missing:\n%s", out)
	}
	// No video requirement renders a placeholder.
	empty := RenderVideoProfile(profile.UserProfile{}, nil)
	if !strings.Contains(empty, "no video requirement") {
		t.Error("placeholder missing")
	}
}

func TestRenderInformationWindow(t *testing.T) {
	// Failure without offer: status only.
	out := RenderInformation(InfoResult{Status: "FAILEDTRYLATER", Reason: "resources shortage"})
	if !strings.Contains(out, "FAILEDTRYLATER") || !strings.Contains(out, "resources shortage") {
		t.Errorf("failure window:\n%s", out)
	}
	if strings.Contains(out, "Press OK within") {
		t.Error("failure window must not show the confirmation prompt")
	}
	// Success: offer, cost and choice period.
	v := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: 480}
	offer := profile.MMProfile{Video: &v, Cost: profile.CostProfile{MaxCost: cost.Dollars(5)}}
	out = RenderInformation(InfoResult{
		Status: "SUCCEEDED", Offer: &offer, Cost: cost.Dollars(5), ChoicePeriod: "30s",
	})
	for _, want := range []string{"SUCCEEDED", "color", "5$", "Press OK within 30s", "[CANCEL]"} {
		if !strings.Contains(out, want) {
			t.Errorf("success window missing %q:\n%s", want, out)
		}
	}
}

func TestFailedSections(t *testing.T) {
	s := store(t)
	u, _ := s.Get("tv-quality")
	// Offer below the desired video quality and over budget.
	offer := profile.MMProfile{
		Video: &qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: 480},
		Audio: u.Desired.Audio,
		Cost:  profile.CostProfile{MaxCost: cost.Dollars(9)},
	}
	failed := FailedSections(u, offer)
	if !failed["video"] || !failed["cost"] {
		t.Errorf("failed = %v", failed)
	}
	if failed["audio"] {
		t.Error("audio wrongly flagged")
	}
	// Matching offer: nothing flagged.
	failed = FailedSections(u, profile.MMProfile{
		Video: u.Desired.Video,
		Audio: u.Desired.Audio,
		Cost:  profile.CostProfile{MaxCost: cost.Dollars(5)},
	})
	if len(failed) != 0 {
		t.Errorf("failed = %v", failed)
	}
	// Missing medium is flagged.
	failed = FailedSections(u, profile.MMProfile{Video: u.Desired.Video})
	if !failed["audio"] {
		t.Error("missing audio not flagged")
	}
}

// scripted is a negotiation stub for flow tests.
type scripted struct {
	out       Outcome
	err       error
	calls     int
	confirmed bool
	rejected  bool
}

func (s *scripted) negotiate(profile.UserProfile) (Outcome, error) {
	s.calls++
	out := s.out
	if out.Confirm == nil && out.Offer != nil {
		out.Confirm = func() error { s.confirmed = true; return nil }
		out.Reject = func() error { s.rejected = true; return nil }
	}
	return out, s.err
}

func successOutcome() Outcome {
	v := qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: 480}
	return Outcome{
		Status:       "SUCCEEDED",
		Offer:        &profile.MMProfile{Video: &v, Audio: &qos.AudioQoS{Grade: qos.CDQuality}, Cost: profile.CostProfile{MaxCost: cost.Dollars(5)}},
		Cost:         cost.Dollars(5),
		ChoicePeriod: 30 * time.Second,
	}
}

func TestFlowHappyPath(t *testing.T) {
	s := store(t)
	stub := &scripted{out: successOutcome()}
	f := NewFlow(s, stub.negotiate)
	if f.State() != StateMain {
		t.Fatalf("initial state %v", f.State())
	}
	if f.Selected() != "tv-quality" {
		t.Errorf("default selection = %s", f.Selected())
	}
	if err := f.Select("premium"); err != nil {
		t.Fatal(err)
	}
	if err := f.OK(); err != nil {
		t.Fatal(err)
	}
	if f.State() != StateInformation {
		t.Fatalf("state after OK = %v", f.State())
	}
	if err := f.Accept(); err != nil {
		t.Fatal(err)
	}
	if f.State() != StatePlaying || !stub.confirmed {
		t.Errorf("state=%v confirmed=%v", f.State(), stub.confirmed)
	}
	// Transcript captured every window.
	if len(f.Transcript) != 4 {
		t.Errorf("transcript windows = %d", len(f.Transcript))
	}
	if !strings.Contains(f.Transcript[2], "Information window") {
		t.Error("information window missing from transcript")
	}
}

func TestFlowCancelRenegotiation(t *testing.T) {
	s := store(t)
	stub := &scripted{out: successOutcome()}
	f := NewFlow(s, stub.negotiate)
	f.OK()
	if err := f.Cancel(); err != nil {
		t.Fatal(err)
	}
	if f.State() != StateMain || !stub.rejected {
		t.Errorf("state=%v rejected=%v", f.State(), stub.rejected)
	}
	// Renegotiate right away.
	if err := f.OK(); err != nil {
		t.Fatal(err)
	}
	if stub.calls != 2 {
		t.Errorf("negotiations = %d", stub.calls)
	}
}

func TestFlowTimeout(t *testing.T) {
	s := store(t)
	stub := &scripted{out: successOutcome()}
	f := NewFlow(s, stub.negotiate)
	f.OK()
	if err := f.Timeout(); err != nil {
		t.Fatal(err)
	}
	if f.State() != StateMain || !stub.rejected {
		t.Errorf("state=%v rejected=%v", f.State(), stub.rejected)
	}
	if f.Outcome() != nil {
		t.Error("outcome must be cleared after timeout")
	}
}

func TestFlowFailureWithoutOffer(t *testing.T) {
	s := store(t)
	stub := &scripted{out: Outcome{Status: "FAILEDTRYLATER", Reason: "shortage"}}
	f := NewFlow(s, stub.negotiate)
	f.OK()
	if f.State() != StateInformation {
		t.Fatalf("state = %v", f.State())
	}
	// Acknowledging a failure returns to the main window.
	if err := f.Accept(); err != nil {
		t.Fatal(err)
	}
	if f.State() != StateMain {
		t.Errorf("state = %v", f.State())
	}
}

func TestFlowEditShowsRedFlags(t *testing.T) {
	s := store(t)
	// Offer that undercuts tv-quality's desired color.
	out := successOutcome()
	out.Status = "FAILEDWITHOFFER"
	out.Offer.Video.Color = qos.Grey
	stub := &scripted{out: out}
	f := NewFlow(s, stub.negotiate)
	f.OK()
	if err := f.Edit(); err != nil {
		t.Fatal(err)
	}
	if f.State() != StateComponents {
		t.Fatalf("state = %v", f.State())
	}
	win := f.Render()
	if !strings.Contains(win, "[RED]") {
		t.Errorf("component window lacks red flags:\n%s", win)
	}
	if err := f.Back(); err != nil {
		t.Fatal(err)
	}
	if f.State() != StateMain {
		t.Errorf("state = %v", f.State())
	}
}

func TestFlowSaveProfile(t *testing.T) {
	s := store(t)
	stub := &scripted{out: successOutcome()}
	f := NewFlow(s, stub.negotiate)
	f.Edit()
	edited, _ := s.Get("tv-quality")
	edited.Name = "tv-quality-custom"
	if err := f.Save(edited); err != nil {
		t.Fatal(err)
	}
	if f.Selected() != "tv-quality-custom" {
		t.Errorf("selected = %s", f.Selected())
	}
	if _, err := s.Get("tv-quality-custom"); err != nil {
		t.Error("profile not saved")
	}
}

func TestFlowBadTransitions(t *testing.T) {
	s := store(t)
	stub := &scripted{out: successOutcome()}
	f := NewFlow(s, stub.negotiate)
	if err := f.Accept(); !errors.Is(err, ErrBadTransition) {
		t.Errorf("Accept in main: %v", err)
	}
	if err := f.Cancel(); !errors.Is(err, ErrBadTransition) {
		t.Errorf("Cancel in main: %v", err)
	}
	if err := f.Select("ghost"); err == nil {
		t.Error("selecting a ghost profile accepted")
	}
	if err := f.Exit(); err != nil {
		t.Fatal(err)
	}
	if f.State() != StateExited {
		t.Errorf("state = %v", f.State())
	}
	if err := f.OK(); !errors.Is(err, ErrBadTransition) {
		t.Errorf("OK after exit: %v", err)
	}
	if State(9).String() == "" || StateMain.String() != "main" {
		t.Error("state names")
	}
}

func TestBarClamping(t *testing.T) {
	// Out-of-range values land on the bar's edges rather than panicking.
	line := bar(0, 10, 15, -3, nil)
	if !strings.Contains(line, "D") || !strings.Contains(line, "m") {
		t.Errorf("bar = %s", line)
	}
	// Degenerate range.
	line = bar(5, 5, 5, 5, nil)
	if line == "" {
		t.Error("degenerate bar empty")
	}
}
