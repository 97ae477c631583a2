package client

import (
	"strings"
	"testing"
	"time"

	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

func colorProfile() profile.MMProfile {
	return profile.MMProfile{
		Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
		Audio: &qos.AudioQoS{Grade: qos.CDQuality},
		Image: &qos.ImageQoS{Color: qos.Color, Resolution: qos.TVResolution},
	}
}

func TestValidate(t *testing.T) {
	if err := Workstation("c1", "node-1").Validate(); err != nil {
		t.Fatalf("workstation invalid: %v", err)
	}
	if err := Terminal("c2", "node-2").Validate(); err != nil {
		t.Fatalf("terminal invalid: %v", err)
	}
	bad := []Machine{
		{}, // everything missing
		{ID: "c", Node: "n", Display: Display{WidthPx: 0, HeightPx: 1, Color: qos.Color}, MaxFrameRate: 25, Decoders: []media.Format{media.MPEG1}},
		{ID: "c", Node: "n", Display: Display{WidthPx: 1, HeightPx: 1, Color: 0}, MaxFrameRate: 25, Decoders: []media.Format{media.MPEG1}},
		{ID: "c", Node: "n", Display: Display{WidthPx: 1, HeightPx: 1, Color: qos.Color}, MaxFrameRate: 0, Decoders: []media.Format{media.MPEG1}},
		{ID: "c", Node: "n", Display: Display{WidthPx: 1, HeightPx: 1, Color: qos.Color}, MaxFrameRate: 25},
		{ID: "c", Node: "n", Display: Display{WidthPx: 1, HeightPx: 1, Color: qos.Color}, MaxFrameRate: 25, Decoders: []media.Format{"AVI"}},
		{ID: "c", Node: "n", Display: Display{WidthPx: 1, HeightPx: 1, Color: qos.Color}, MaxFrameRate: 25, Audio: 7, Decoders: []media.Format{media.MPEG1}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad machine %d accepted", i)
		}
	}
}

func TestCheckLocalPasses(t *testing.T) {
	m := Workstation("c1", "n1")
	if v := m.CheckLocal(colorProfile()); len(v) != 0 {
		t.Errorf("workstation should support the profile: %v", v)
	}
}

// TestCheckLocalColorViolation reproduces the paper's FAILEDWITHLOCALOFFER
// example: "the user asks for a color video, while the client machine
// screen is black&white".
func TestCheckLocalColorViolation(t *testing.T) {
	m := Terminal("c1", "n1")
	m.Display.Color = qos.BlackWhite
	violations := m.CheckLocal(colorProfile())
	if len(violations) == 0 {
		t.Fatal("no violations reported")
	}
	var hasColor bool
	for _, v := range violations {
		if v.Kind == qos.Video && v.Param == "color" {
			hasColor = true
			if !strings.Contains(v.String(), "color") {
				t.Errorf("violation text: %s", v)
			}
		}
	}
	if !hasColor {
		t.Errorf("color violation missing: %v", violations)
	}
}

func TestCheckLocalEveryDimension(t *testing.T) {
	m := Machine{
		ID: "c", Node: "n",
		Display:      Display{WidthPx: 320, HeightPx: 240, Color: qos.Grey},
		MaxFrameRate: 10,
		Audio:        0, // no audio hardware
		Decoders:     []media.Format{media.MPEG1},
	}
	p := profile.MMProfile{
		Video: &qos.VideoQoS{Color: qos.SuperColor, FrameRate: 30, Resolution: 1920},
		Audio: &qos.AudioQoS{Grade: qos.CDQuality},
		Image: &qos.ImageQoS{Color: qos.Color, Resolution: 1920},
	}
	violations := m.CheckLocal(p)
	if len(violations) != 6 {
		t.Errorf("want 6 violations (3 video, 1 audio, 2 image), got %d: %v", len(violations), violations)
	}
}

func TestCheckLocalAudioGrade(t *testing.T) {
	m := Terminal("c1", "n1") // telephone audio
	p := profile.MMProfile{Audio: &qos.AudioQoS{Grade: qos.CDQuality}}
	v := m.CheckLocal(p)
	if len(v) != 1 || v[0].Kind != qos.Audio {
		t.Errorf("violations = %v", v)
	}
	// Telephone request passes.
	p.Audio.Grade = qos.TelephoneQuality
	if v := m.CheckLocal(p); len(v) != 0 {
		t.Errorf("telephone request should pass: %v", v)
	}
}

func TestLocalOfferClamps(t *testing.T) {
	m := Machine{
		ID: "c", Node: "n",
		Display:      Display{WidthPx: 640, HeightPx: 480, Color: qos.Grey},
		MaxFrameRate: 15,
		Audio:        0,
		Decoders:     []media.Format{media.MPEG1},
	}
	offer := m.LocalOffer(colorProfile())
	if offer.Video.Color != qos.Grey || offer.Video.Resolution != 480 || offer.Video.FrameRate != 15 {
		t.Errorf("video offer = %+v", offer.Video)
	}
	if offer.Audio != nil {
		t.Error("audio offer should be dropped on a machine without audio")
	}
	if offer.Image.Color != qos.Grey {
		t.Errorf("image offer = %+v", offer.Image)
	}
	// The local offer itself passes the local check.
	if v := m.CheckLocal(offer); len(v) != 0 {
		t.Errorf("local offer still violates: %v", v)
	}
	// Clamping never mutates the input.
	in := colorProfile()
	m.LocalOffer(in)
	if in.Video.Color != qos.Color {
		t.Error("LocalOffer mutated its input")
	}
}

func TestLocalOfferAudioClamp(t *testing.T) {
	m := Terminal("c1", "n1")
	p := profile.MMProfile{Audio: &qos.AudioQoS{Grade: qos.CDQuality, Language: qos.French}}
	offer := m.LocalOffer(p)
	if offer.Audio == nil || offer.Audio.Grade != qos.TelephoneQuality {
		t.Errorf("audio offer = %+v", offer.Audio)
	}
	if offer.Audio.Language != qos.French {
		t.Error("language must be preserved")
	}
}

func TestSupportsFormatAndCanDecode(t *testing.T) {
	m := Terminal("c1", "n1") // MPEG-1 video only, 640 px, 25 fps, telephone audio
	if !m.SupportsFormat(media.MPEG1) || m.SupportsFormat(media.MJPEG) {
		t.Error("decoder list wrong")
	}
	mk := func(f media.Format, v qos.VideoQoS) media.Variant {
		return media.VideoVariant("v", "s", f, v, time.Minute)
	}
	// Paper's step 2 example: an MJPEG variant on an MPEG-only machine is
	// not feasible.
	if m.CanDecode(mk(media.MJPEG, qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: 480})) {
		t.Error("MJPEG variant must be rejected")
	}
	if !m.CanDecode(mk(media.MPEG1, qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: 480})) {
		t.Error("decodable variant rejected")
	}
	// Too high resolution or frame rate for the terminal.
	if m.CanDecode(mk(media.MPEG1, qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: 1920})) {
		t.Error("1920-pixel variant must be rejected on a 640-pixel screen")
	}
	if m.CanDecode(mk(media.MPEG1, qos.VideoQoS{Color: qos.Grey, FrameRate: 60, Resolution: 480})) {
		t.Error("60 fps variant must be rejected at 25 fps max")
	}
	// Audio grade cap.
	cd := media.AudioVariant("a", "s", media.MPEG1Audio, qos.AudioQoS{Grade: qos.CDQuality}, time.Minute)
	tel := media.AudioVariant("a", "s", media.MPEG1Audio, qos.AudioQoS{Grade: qos.TelephoneQuality}, time.Minute)
	if m.CanDecode(cd) {
		t.Error("CD audio must be rejected on telephone hardware")
	}
	if !m.CanDecode(tel) {
		t.Error("telephone audio rejected")
	}
	// Text is always renderable given a decoder.
	txt := media.TextVariant("t", "s", qos.English, 128)
	if !m.CanDecode(txt) {
		t.Error("text variant rejected")
	}
	// Image resolution cap.
	img := media.ImageVariant("i", "s", media.GIF, qos.ImageQoS{Color: qos.Grey, Resolution: 1920})
	if m.CanDecode(img) {
		t.Error("oversized image accepted")
	}
}

func TestNoAudioMachineRejectsAudio(t *testing.T) {
	m := Workstation("c1", "n1")
	m.Audio = 0
	a := media.AudioVariant("a", "s", media.PCM, qos.AudioQoS{Grade: qos.TelephoneQuality}, time.Minute)
	if m.CanDecode(a) {
		t.Error("machine without audio output decoded audio")
	}
}

// TestFingerprint: every capability the step-1/step-2 decisions read moves
// the fingerprint, identity does not, and a permuted decoder list keeps it.
// The value is the same in every run, so the offer-cache shard a machine's
// keys land in is too.
func TestFingerprint(t *testing.T) {
	base := Workstation("ws-1", "client-1")
	want := base.Fingerprint()
	if want != 0x1ccf75d963a5f25b {
		t.Errorf("a workstation's fingerprint is %#x, want the fixed 0x1ccf75d963a5f25b", want)
	}
	for name, change := range map[string]func(m *Machine){
		"width":        func(m *Machine) { m.Display.WidthPx-- },
		"height":       func(m *Machine) { m.Display.HeightPx-- },
		"color":        func(m *Machine) { m.Display.Color = qos.Grey },
		"frame rate":   func(m *Machine) { m.MaxFrameRate-- },
		"audio":        func(m *Machine) { m.Audio = qos.TelephoneQuality },
		"decoder lost": func(m *Machine) { m.Decoders = m.Decoders[1:] },
		"decoder swapped": func(m *Machine) {
			m.Decoders = append([]media.Format{media.PlainText}, m.Decoders[1:]...)
		},
	} {
		m := Workstation("ws-1", "client-1")
		change(&m)
		if m.Fingerprint() == want {
			t.Errorf("%s: the fingerprint did not change", name)
		}
	}
	same := Workstation("ws-2", "client-9")
	same.Decoders = append([]media.Format(nil), base.Decoders...)
	for i, j := 0, len(same.Decoders)-1; i < j; i, j = i+1, j-1 {
		same.Decoders[i], same.Decoders[j] = same.Decoders[j], same.Decoders[i]
	}
	if same.Fingerprint() != want {
		t.Error("another id, node and decoder order changed the fingerprint")
	}
}
