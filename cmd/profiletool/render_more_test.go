package main

import (
	"strings"
	"testing"
	"time"

	"qosneg/internal/cost"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

func fullProfile() profile.UserProfile {
	return profile.UserProfile{
		Name: "full",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: 480},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Image: &qos.ImageQoS{Color: qos.Color, Resolution: 480},
			Text:  &qos.TextQoS{Language: qos.French},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(8)},
			Time:  profile.TimeProfile{MaxStartDelay: 5 * time.Second, ChoicePeriod: 20 * time.Second},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Grey, FrameRate: 10, Resolution: 100},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Image: &qos.ImageQoS{Color: qos.Grey, Resolution: 100},
			Text:  &qos.TextQoS{Language: qos.French},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(8)},
			Time:  profile.TimeProfile{MaxStartDelay: 5 * time.Second, ChoicePeriod: 20 * time.Second},
		},
		Importance: profile.DefaultImportance(),
	}
}

func TestRenderImageProfile(t *testing.T) {
	u := fullProfile()
	out := RenderImageProfile(u, nil)
	for _, want := range []string{"Image profile", "color", "resolution", "D", "m"} {
		if !strings.Contains(out, want) {
			t.Errorf("image window missing %q:\n%s", want, out)
		}
	}
	offer := &qos.ImageQoS{Color: qos.Grey, Resolution: 300}
	out = RenderImageProfile(u, offer)
	if !strings.Contains(out, "offer") {
		t.Errorf("offer missing:\n%s", out)
	}
	if empty := RenderImageProfile(profile.UserProfile{}, nil); !strings.Contains(empty, "no image requirement") {
		t.Error("placeholder missing")
	}
}

func TestRenderTextProfile(t *testing.T) {
	u := fullProfile()
	out := RenderTextProfile(u, nil)
	if !strings.Contains(out, "french") {
		t.Errorf("text window:\n%s", out)
	}
	out = RenderTextProfile(u, &qos.TextQoS{Language: qos.English})
	if !strings.Contains(out, "english") {
		t.Errorf("offer missing:\n%s", out)
	}
	if empty := RenderTextProfile(profile.UserProfile{}, nil); !strings.Contains(empty, "no text requirement") {
		t.Error("placeholder missing")
	}
}

func TestRenderTimeProfile(t *testing.T) {
	out := RenderTimeProfile(fullProfile())
	if !strings.Contains(out, "5s") || !strings.Contains(out, "20s") {
		t.Errorf("time window:\n%s", out)
	}
	// A profile without an explicit choice period shows the default.
	u := fullProfile()
	u.Desired.Time.ChoicePeriod = 0
	if out := RenderTimeProfile(u); !strings.Contains(out, "default") {
		t.Errorf("default choice period missing:\n%s", out)
	}
}

func TestRenderImportanceProfile(t *testing.T) {
	u := fullProfile()
	out := RenderImportanceProfile(u)
	for _, want := range []string{"Importance profile", "video color", "frame rate", "telephone 5", "CD 9", "cost importance: 1 per $"} {
		if !strings.Contains(out, want) {
			t.Errorf("importance window missing %q:\n%s", want, out)
		}
	}
	// The §3 example (2): audio more important than video — the window
	// shows the shifted weights.
	u.Importance.AudioGrade[qos.CDQuality] = 20
	out = RenderImportanceProfile(u)
	if !strings.Contains(out, "CD 20") {
		t.Errorf("edited importance missing:\n%s", out)
	}
}
