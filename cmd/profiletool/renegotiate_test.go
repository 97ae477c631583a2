package main

import (
	"errors"
	"testing"

	"qosneg/internal/qos"
)

func TestFlowRenegotiate(t *testing.T) {
	s := store(t)
	stub := &scripted{out: successOutcome()}
	f := NewFlow(s, stub.negotiate)
	if err := f.OK(); err != nil {
		t.Fatal(err)
	}
	// The user edits the profile and renegotiates from the information
	// window.
	edited, _ := s.Get("tv-quality")
	edited.Desired.Video.FrameRate = 30
	edited.Worst.Video.FrameRate = 20
	if err := f.Renegotiate(edited); err != nil {
		t.Fatal(err)
	}
	if f.State() != StateInformation {
		t.Errorf("state = %v", f.State())
	}
	if stub.calls != 2 {
		t.Errorf("negotiations = %d", stub.calls)
	}
	if !stub.rejected {
		t.Error("previous reservation not surrendered")
	}
	// The edited profile was saved.
	saved, err := s.Get("tv-quality")
	if err != nil {
		t.Fatal(err)
	}
	if saved.Desired.Video.FrameRate != 30 {
		t.Errorf("profile not saved: %+v", saved.Desired.Video)
	}
	// The renegotiated offer can still be accepted.
	if err := f.Accept(); err != nil {
		t.Fatal(err)
	}
	if f.State() != StatePlaying {
		t.Errorf("state = %v", f.State())
	}
}

func TestFlowRenegotiateRedFlags(t *testing.T) {
	s := store(t)
	out := successOutcome()
	out.Status = "FAILEDWITHOFFER"
	out.Offer.Video.Color = qos.Grey
	stub := &scripted{out: out}
	f := NewFlow(s, stub.negotiate)
	f.OK()
	edited, _ := s.Get("tv-quality")
	if err := f.Renegotiate(edited); err != nil {
		t.Fatal(err)
	}
	f.Edit()
	if win := f.Render(); !containsRed(win) {
		t.Errorf("red flags missing after renegotiation:\n%s", win)
	}
}

func containsRed(s string) bool {
	for i := 0; i+4 < len(s); i++ {
		if s[i:i+5] == "[RED]" {
			return true
		}
	}
	return false
}

func TestFlowRenegotiateBadState(t *testing.T) {
	s := store(t)
	stub := &scripted{out: successOutcome()}
	f := NewFlow(s, stub.negotiate)
	u, _ := s.Get("tv-quality")
	if err := f.Renegotiate(u); !errors.Is(err, ErrBadTransition) {
		t.Errorf("renegotiate from main: %v", err)
	}
	// Invalid profile is rejected without losing the window.
	f.OK()
	bad := u.Clone()
	bad.Name = ""
	if err := f.Renegotiate(bad); err == nil {
		t.Error("invalid profile accepted")
	}
	if f.State() != StateInformation {
		t.Errorf("state = %v", f.State())
	}
}
