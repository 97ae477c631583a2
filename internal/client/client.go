// Package client models the client machines of the news-on-demand
// prototype: their display, audio output and installed decoders. Two steps
// of the negotiation procedure read this model:
//
//   - Step 1, static local negotiation: "check whether the client machine
//     characteristics, such as the screen size and the screen color,
//     support the requested QoS" — if not, the user gets
//     FAILEDWITHLOCALOFFER together with the best QoS the machine can
//     render.
//   - Step 2, static compatibility checking: "check the format
//     compatibility of the variants ... with the decoder(s) supported by
//     the client machine".
package client

import (
	"fmt"

	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/wordhash"
)

// MachineID names a client machine.
type MachineID string

// Display describes the client's screen.
type Display struct {
	// WidthPx is the horizontal resolution in pixels per line, comparable
	// with the Figure 2 resolution scale.
	WidthPx int `json:"widthPx"`
	// HeightPx is the vertical resolution.
	HeightPx int `json:"heightPx"`
	// Color is the best color quality the screen can render; a
	// black&white screen cannot satisfy a color request (the paper's
	// FAILEDWITHLOCALOFFER example).
	Color qos.ColorQuality `json:"color"`
}

// Machine is one client machine.
type Machine struct {
	ID      MachineID `json:"id"`
	Display Display   `json:"display"`
	// MaxFrameRate is the best frame rate the machine's decoder/display
	// pipeline sustains.
	MaxFrameRate int `json:"maxFrameRate"`
	// Audio is the best audio grade the output hardware supports; zero
	// means the machine has no audio output.
	Audio qos.AudioGrade `json:"audio,omitempty"`
	// Decoders lists the installed decoder formats.
	Decoders []media.Format `json:"decoders"`
	// Node is the machine's attachment point in the network substrate.
	Node network.NodeID `json:"node"`
}

// Validate checks the machine description.
func (m Machine) Validate() error {
	if m.ID == "" {
		return fmt.Errorf("client: empty machine id")
	}
	if m.Node == "" {
		return fmt.Errorf("client %s: no network attachment", m.ID)
	}
	if m.Display.WidthPx <= 0 || m.Display.HeightPx <= 0 {
		return fmt.Errorf("client %s: bad display %dx%d", m.ID, m.Display.WidthPx, m.Display.HeightPx)
	}
	if !m.Display.Color.Valid() {
		return fmt.Errorf("client %s: invalid display color %d", m.ID, int(m.Display.Color))
	}
	if m.MaxFrameRate <= 0 {
		return fmt.Errorf("client %s: non-positive max frame rate", m.ID)
	}
	if m.Audio != 0 && !m.Audio.Valid() {
		return fmt.Errorf("client %s: invalid audio grade %d", m.ID, int(m.Audio))
	}
	if len(m.Decoders) == 0 {
		return fmt.Errorf("client %s: no decoders installed", m.ID)
	}
	for _, f := range m.Decoders {
		if !f.Known() {
			return fmt.Errorf("client %s: unknown decoder format %q", m.ID, f)
		}
	}
	return nil
}

// SupportsFormat reports whether the machine has a decoder for format f.
func (m Machine) SupportsFormat(f media.Format) bool {
	for _, d := range m.Decoders {
		if d == f {
			return true
		}
	}
	return false
}

// LocalViolation describes one way the desired profile exceeds the client
// machine's capabilities.
type LocalViolation struct {
	Kind   qos.MediaKind
	Param  string
	Detail string
}

// String renders e.g. "video color: requested color, screen renders grey".
func (v LocalViolation) String() string {
	return fmt.Sprintf("%s %s: %s", v.Kind, v.Param, v.Detail)
}

// CheckLocal runs negotiation step 1 against the desired MM profile and
// returns every violated characteristic. An empty result means the machine
// supports the requested QoS.
func (m Machine) CheckLocal(desired profile.MMProfile) []LocalViolation {
	var out []LocalViolation
	if v := desired.Video; v != nil {
		if v.Color > m.Display.Color {
			out = append(out, LocalViolation{qos.Video, "color",
				fmt.Sprintf("requested %s, screen renders %s", v.Color, m.Display.Color)})
		}
		if v.Resolution > m.Display.WidthPx {
			out = append(out, LocalViolation{qos.Video, "resolution",
				fmt.Sprintf("requested %d pixels/line, screen has %d", v.Resolution, m.Display.WidthPx)})
		}
		if v.FrameRate > m.MaxFrameRate {
			out = append(out, LocalViolation{qos.Video, "frame rate",
				fmt.Sprintf("requested %d frames/s, machine sustains %d", v.FrameRate, m.MaxFrameRate)})
		}
	}
	if a := desired.Audio; a != nil {
		if m.Audio == 0 {
			out = append(out, LocalViolation{qos.Audio, "output", "machine has no audio output"})
		} else if a.Grade > m.Audio {
			out = append(out, LocalViolation{qos.Audio, "grade",
				fmt.Sprintf("requested %s quality, hardware plays %s", a.Grade, m.Audio)})
		}
	}
	if i := desired.Image; i != nil {
		if i.Color > m.Display.Color {
			out = append(out, LocalViolation{qos.Image, "color",
				fmt.Sprintf("requested %s, screen renders %s", i.Color, m.Display.Color)})
		}
		if i.Resolution > m.Display.WidthPx {
			out = append(out, LocalViolation{qos.Image, "resolution",
				fmt.Sprintf("requested %d pixels/line, screen has %d", i.Resolution, m.Display.WidthPx)})
		}
	}
	return out
}

// LocalOffer clamps the desired MM profile to the machine's capabilities:
// the "local offer" returned to the user with FAILEDWITHLOCALOFFER so the
// GUI can display what this machine could play instead.
func (m Machine) LocalOffer(desired profile.MMProfile) profile.MMProfile {
	out := desired
	if v := desired.Video; v != nil {
		c := *v
		if c.Color > m.Display.Color {
			c.Color = m.Display.Color
		}
		if c.Resolution > m.Display.WidthPx {
			c.Resolution = m.Display.WidthPx
		}
		if c.FrameRate > m.MaxFrameRate {
			c.FrameRate = m.MaxFrameRate
		}
		out.Video = &c
	}
	if a := desired.Audio; a != nil {
		if m.Audio == 0 {
			out.Audio = nil
		} else if a.Grade > m.Audio {
			c := *a
			c.Grade = m.Audio
			out.Audio = &c
		}
	}
	if i := desired.Image; i != nil {
		c := *i
		if c.Color > m.Display.Color {
			c.Color = m.Display.Color
		}
		if c.Resolution > m.Display.WidthPx {
			c.Resolution = m.Display.WidthPx
		}
		out.Image = &c
	}
	return out
}

// CanDecode runs the per-variant half of negotiation step 2: whether this
// machine can decode and render the variant. A variant whose format has no
// installed decoder is excluded from the feasible system offers; a variant
// whose QoS the display cannot render (e.g. a color file on a black&white
// screen is renderable, but a 1920-pixel file on a 640-pixel screen is
// downscaled, which the prototype's players do not implement) is excluded
// as well.
func (m Machine) CanDecode(v media.Variant) bool {
	if !m.SupportsFormat(v.Format) {
		return false
	}
	switch {
	case v.QoS.Video != nil:
		return v.QoS.Video.Resolution <= m.Display.WidthPx && v.QoS.Video.FrameRate <= m.MaxFrameRate
	case v.QoS.Audio != nil:
		return m.Audio != 0 && v.QoS.Audio.Grade <= m.Audio
	case v.QoS.Image != nil:
		return v.QoS.Image.Resolution <= m.Display.WidthPx
	}
	return true
}

// Workstation returns a full-capability reference machine: color display,
// CD audio, every known decoder. Tests and examples use it as the default
// client.
func Workstation(id MachineID, node network.NodeID) Machine {
	return Machine{
		ID:           id,
		Display:      Display{WidthPx: 1280, HeightPx: 1024, Color: qos.SuperColor},
		MaxFrameRate: 60,
		Audio:        qos.CDQuality,
		Decoders:     media.Formats(),
		Node:         node,
	}
}

// Fingerprint hashes the machine's capability surface — display geometry and
// color depth, frame-rate ceiling, audio grade and installed decoder set —
// into a 64-bit value. Two machines with the same fingerprint are guaranteed
// to produce the same step-1/step-2 decisions for any document, which is what
// lets the offer cache share candidate sets across users on the same machine
// class. Identity fields (ID, Node) are deliberately excluded: they never
// influence variant filtering, and folding them in would defeat the sharing.
// The decoder fold is order-independent so permuted decoder lists (e.g. from
// different config files describing the same hardware) still collide.
//
// The hash takes a word at a time (wordhash) from a fixed start state, so a
// machine's fingerprint, and the offer-cache shard it picks, is the same in
// every run.
func (m Machine) Fingerprint() uint64 {
	var dec uint64
	for _, f := range m.Decoders {
		dec ^= wordhash.String(wordhash.Start, string(f)) // XOR: order-independent
	}
	h := wordhash.Start
	for _, v := range [...]uint64{
		uint64(m.Display.WidthPx), uint64(m.Display.HeightPx), uint64(m.Display.Color),
		uint64(m.MaxFrameRate), uint64(m.Audio), dec, uint64(len(m.Decoders)),
	} {
		h = wordhash.Word(h, v)
	}
	return h
}

// Terminal returns a constrained reference machine: grey-scale display,
// telephone audio, MPEG-1 video only. It triggers the paper's
// FAILEDWITHLOCALOFFER example (color request on a non-color screen).
func Terminal(id MachineID, node network.NodeID) Machine {
	return Machine{
		ID:           id,
		Display:      Display{WidthPx: 640, HeightPx: 480, Color: qos.Grey},
		MaxFrameRate: 25,
		Audio:        qos.TelephoneQuality,
		Decoders:     []media.Format{media.MPEG1, media.MPEG1Audio, media.GIF, media.PlainText},
		Node:         node,
	}
}
