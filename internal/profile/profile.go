// Package profile implements the user-profile model of Section 3
// (Figure 2). A user profile describes user preferences in terms of (1) a
// QoS setting for video, audio, still images and text, (2) the cost the user
// is willing to pay, (3) time constraints such as the delivery time, and
// (4) importance factors. It consists of a MM profile with the desired
// values, a MM profile with the worst acceptable values, and an importance
// profile.
//
// The profile manager (package profilemgr) exposes these profiles through
// the QoS GUI; the QoS manager (package core) consumes them as the input to
// the negotiation procedure.
package profile

import (
	"fmt"
	"time"

	"qosneg/internal/cost"
	"qosneg/internal/qos"
)

// CostProfile is Figure 2's cost profile: the amount the user is willing to
// pay to play the requested document with the desired quality, and the
// service guarantee the price buys.
type CostProfile struct {
	// MaxCost is the most the user will pay for the document.
	MaxCost cost.Money `json:"maxCost"`
	// Guarantee selects guaranteed or best-effort delivery.
	Guarantee cost.Guarantee `json:"guarantee"`
}

// Validate reports an error for a negative budget.
func (c CostProfile) Validate() error {
	if c.MaxCost < 0 {
		return fmt.Errorf("cost profile: negative maximum cost %v", c.MaxCost)
	}
	return nil
}

// TimeProfile is Figure 2's time profile, "specified in terms of seconds":
// how long the user will wait for delivery to start and how long the
// reserved offer stays valid awaiting the user's confirmation.
type TimeProfile struct {
	// MaxStartDelay bounds the delay between confirmation and the start
	// of the presentation.
	MaxStartDelay time.Duration `json:"maxStartDelay,omitempty"`
	// ChoicePeriod is the confirmation window of Section 8: resources
	// stay reserved this long while the user decides; on time-out the
	// session is aborted. Zero selects the system default.
	ChoicePeriod time.Duration `json:"choicePeriod,omitempty"`
}

// Validate reports an error for negative time constraints.
func (t TimeProfile) Validate() error {
	if t.MaxStartDelay < 0 {
		return fmt.Errorf("time profile: negative start delay")
	}
	if t.ChoicePeriod < 0 {
		return fmt.Errorf("time profile: negative choice period")
	}
	return nil
}

// MMProfile is Figure 2's MM profile: per-media QoS settings plus the cost
// and time profiles. A nil media section means the user expresses no
// requirement for that medium (any quality is as good as any other).
type MMProfile struct {
	Video *qos.VideoQoS `json:"video,omitempty"`
	Audio *qos.AudioQoS `json:"audio,omitempty"`
	Image *qos.ImageQoS `json:"image,omitempty"`
	Text  *qos.TextQoS  `json:"text,omitempty"`
	Cost  CostProfile   `json:"cost"`
	Time  TimeProfile   `json:"time"`
}

// Setting returns the profile's QoS section for the given media kind as a
// qos.Setting, and false when the user expressed no requirement. Graphics
// share the image section. The setting aliases the profile's own section —
// classification asks twice per candidate, so a copy would be an allocation
// per call — and is read-only.
func (p MMProfile) Setting(k qos.MediaKind) (qos.Setting, bool) {
	switch k {
	case qos.Video:
		return qos.Setting{Video: p.Video}, p.Video != nil
	case qos.Audio:
		return qos.Setting{Audio: p.Audio}, p.Audio != nil
	case qos.Image, qos.Graphic:
		return qos.Setting{Image: p.Image}, p.Image != nil
	case qos.Text:
		return qos.Setting{Text: p.Text}, p.Text != nil
	}
	return qos.Setting{}, false
}

// Validate checks every populated section.
func (p MMProfile) Validate() error {
	if p.Video != nil {
		if err := p.Video.Validate(); err != nil {
			return err
		}
	}
	if p.Audio != nil {
		if err := p.Audio.Validate(); err != nil {
			return err
		}
	}
	if p.Image != nil {
		if err := p.Image.Validate(); err != nil {
			return err
		}
	}
	if p.Text != nil {
		if err := p.Text.Validate(); err != nil {
			return err
		}
	}
	if err := p.Cost.Validate(); err != nil {
		return err
	}
	return p.Time.Validate()
}

// UserProfile is Section 3's user profile: the desired MM profile, the worst
// acceptable MM profile, and the importance profile. Name identifies the
// profile in the profile manager's profile list (Figure 3).
type UserProfile struct {
	Name       string     `json:"name"`
	Desired    MMProfile  `json:"desired"`
	Worst      MMProfile  `json:"worst"`
	Importance Importance `json:"importance"`
}

// Validate checks both MM profiles and their mutual consistency — the worst
// acceptable values may not exceed the desired values, and a medium with a
// desired requirement needs a worst-acceptable bound (the GUI pre-fills it
// with the desired value) — and the importance profile.
func (u UserProfile) Validate() error {
	if u.Name == "" {
		return fmt.Errorf("user profile: empty name")
	}
	if err := u.Desired.Validate(); err != nil {
		return fmt.Errorf("user profile %s: desired: %w", u.Name, err)
	}
	if err := u.Worst.Validate(); err != nil {
		return fmt.Errorf("user profile %s: worst acceptable: %w", u.Name, err)
	}
	for _, k := range []qos.MediaKind{qos.Video, qos.Audio, qos.Image, qos.Text} {
		des, dok := u.Desired.Setting(k)
		wor, wok := u.Worst.Setting(k)
		if dok != wok {
			return fmt.Errorf("user profile %s: %s present in only one MM profile", u.Name, k)
		}
		if dok && !des.Satisfies(wor) {
			return fmt.Errorf("user profile %s: desired %s QoS %s below worst acceptable %s", u.Name, k, des, wor)
		}
	}
	if u.Worst.Cost.MaxCost < u.Desired.Cost.MaxCost {
		return fmt.Errorf("user profile %s: worst-acceptable budget %v below desired budget %v",
			u.Name, u.Worst.Cost.MaxCost, u.Desired.Cost.MaxCost)
	}
	if err := u.Importance.Validate(); err != nil {
		return fmt.Errorf("user profile %s: %w", u.Name, err)
	}
	return nil
}

// MaxCost returns the binding budget: the worst-acceptable cost bound.
func (u UserProfile) MaxCost() cost.Money { return u.Worst.Cost.MaxCost }

// Clone returns a deep copy of the profile, so the GUI can edit a scratch
// copy without touching the stored one: the MM profiles' sections are
// copied, and the importance profile is a value.
func (u UserProfile) Clone() UserProfile {
	c := u
	c.Desired = u.Desired.clone()
	c.Worst = u.Worst.clone()
	return c
}

func (p MMProfile) clone() MMProfile {
	c := p
	if p.Video != nil {
		v := *p.Video
		c.Video = &v
	}
	if p.Audio != nil {
		a := *p.Audio
		c.Audio = &a
	}
	if p.Image != nil {
		i := *p.Image
		c.Image = &i
	}
	if p.Text != nil {
		t := *p.Text
		c.Text = &t
	}
	return c
}
