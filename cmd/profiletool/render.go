package main

// This file is the reproduction's profile manager: the component
// that owns user profiles and the QoS GUI of Section 8. The original was
// built with AIC/Motif on X11; here every window of Figures 3–7 is a
// deterministic text rendering, and the window flow (main window → profile
// component window → profile windows → information window, with the
// choicePeriod confirmation timer) is a state machine that examples and
// tests can drive programmatically.

import (
	"fmt"
	"strings"

	"qosneg/internal/cost"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

const windowWidth = 62

// box renders a titled window frame around the given lines.
func box(title string, lines []string) string {
	var b strings.Builder
	inner := windowWidth - 2
	pad := inner - len(title) - 2
	left := pad / 2
	right := pad - left
	fmt.Fprintf(&b, "+%s %s %s+\n", strings.Repeat("-", left), title, strings.Repeat("-", right))
	for _, l := range lines {
		if len(l) > inner-2 {
			l = l[:inner-5] + "..."
		}
		fmt.Fprintf(&b, "| %-*s |\n", inner-2, l)
	}
	fmt.Fprintf(&b, "+%s+\n", strings.Repeat("-", inner))
	return b.String()
}

// bar renders a scaling bar for an integer parameter: the profile windows'
// "scaling bars and predefined values" (Section 8). Markers: D desired,
// m worst acceptable (minimum), o the system's offer (when present).
func bar(lo, hi, desired, min int, offer *int) string {
	const width = 30
	cells := make([]byte, width)
	for i := range cells {
		cells[i] = '-'
	}
	place := func(v int, mark byte) {
		if hi == lo {
			return
		}
		pos := (v - lo) * (width - 1) / (hi - lo)
		if pos < 0 {
			pos = 0
		}
		if pos >= width {
			pos = width - 1
		}
		cells[pos] = mark
	}
	place(min, 'm')
	place(desired, 'D')
	if offer != nil {
		place(*offer, 'o')
	}
	return fmt.Sprintf("%4d |%s| %d", lo, string(cells), hi)
}

// RenderMain renders the main window (Figure 3): the profile list with the
// default marked, the selected profile highlighted, and the window's
// buttons. Pushing OK starts the negotiation.
func RenderMain(s *profile.Store, selected string) string {
	lines := []string{"User profiles:"}
	def := ""
	if d, err := s.Default(); err == nil {
		def = d.Name
	}
	for _, name := range s.List() {
		marker := "  "
		if name == selected {
			marker = "> "
		}
		suffix := ""
		if name == def {
			suffix = " (default)"
		}
		lines = append(lines, "  "+marker+name+suffix)
	}
	lines = append(lines, "", "[OK] [Edit] [Delete] [Set default] [EXIT]")
	return box("Main window", lines)
}

// RenderComponents renders the profile component window (Figure 4): the
// monomedia, time and cost profiles of the selected user profile, with the
// constraint buttons of unsatisfiable profiles "activated with red color"
// — rendered as a [RED] tag — after a failed negotiation.
func RenderComponents(u profile.UserProfile, failed map[string]bool) string {
	lines := []string{fmt.Sprintf("Profile: %s", u.Name), ""}
	row := func(name, detail string) {
		flag := "     "
		if failed[name] {
			flag = "[RED]"
		}
		lines = append(lines, fmt.Sprintf("  %s %-8s %s", flag, name, detail))
	}
	if u.Desired.Video != nil {
		row("video", u.Desired.Video.String())
	}
	if u.Desired.Audio != nil {
		row("audio", u.Desired.Audio.String())
	}
	if u.Desired.Image != nil {
		row("image", u.Desired.Image.String())
	}
	if u.Desired.Text != nil {
		row("text", u.Desired.Text.String())
	}
	row("cost", fmt.Sprintf("max %s (%s)", u.Desired.Cost.MaxCost, u.Desired.Cost.Guarantee))
	row("time", fmt.Sprintf("start %s choice %s", u.Desired.Time.MaxStartDelay, choiceOf(u)))
	lines = append(lines, "", "[Save] [Save as] [CANCEL]")
	return box("Profile component window", lines)
}

func choiceOf(u profile.UserProfile) string {
	if u.Desired.Time.ChoicePeriod > 0 {
		return u.Desired.Time.ChoicePeriod.String()
	}
	return "default"
}

// RenderVideoProfile renders the video profile window (Figure 5): one
// scaling bar per QoS parameter with the desired value, the minimum
// acceptable value and — after a failed negotiation — the offer bar.
func RenderVideoProfile(u profile.UserProfile, offer *qos.VideoQoS) string {
	d, w := u.Desired.Video, u.Worst.Video
	if d == nil || w == nil {
		return box("Video profile", []string{"(no video requirement)"})
	}
	var offRate, offRes *int
	offerLine := ""
	if offer != nil {
		offRate, offRes = &offer.FrameRate, &offer.Resolution
		offerLine = fmt.Sprintf("offer: %s", offer)
	}
	lines := []string{
		fmt.Sprintf("color      desired %-12s min %s", d.Color, w.Color),
		"frame rate " + bar(qos.FrozenRate, qos.HDTVRate, d.FrameRate, w.FrameRate, offRate),
		"resolution " + bar(qos.MinResolution, qos.HDTVResolution, d.Resolution, w.Resolution, offRes),
	}
	if offer != nil {
		lines = append(lines, fmt.Sprintf("offer color %s", offer.Color), offerLine)
	}
	lines = append(lines, "", "[OK] [Save] [Save as] [show example] [CANCEL]")
	return box("Video profile", lines)
}

// RenderAudioProfile renders the audio profile window.
func RenderAudioProfile(u profile.UserProfile, offer *qos.AudioQoS) string {
	d, w := u.Desired.Audio, u.Worst.Audio
	if d == nil || w == nil {
		return box("Audio profile", []string{"(no audio requirement)"})
	}
	lines := []string{
		fmt.Sprintf("quality    desired %-12s min %s", d.Grade, w.Grade),
	}
	if d.Language != "" {
		lines = append(lines, fmt.Sprintf("language   %s", d.Language))
	}
	if offer != nil {
		lines = append(lines, fmt.Sprintf("offer: %s", offer))
	}
	lines = append(lines, "", "[OK] [Save] [Save as] [show example] [CANCEL]")
	return box("Audio profile", lines)
}

// RenderCostProfile renders the cost profile window.
func RenderCostProfile(u profile.UserProfile, offered cost.Money) string {
	lines := []string{
		fmt.Sprintf("maximum cost    %s", u.Desired.Cost.MaxCost),
		fmt.Sprintf("guarantee       %s", u.Desired.Cost.Guarantee),
		fmt.Sprintf("cost importance %.3g per $", u.Importance.CostPerDollar),
	}
	if offered > 0 {
		lines = append(lines, fmt.Sprintf("offered cost    %s", offered))
	}
	lines = append(lines, "", "[OK] [Save] [Save as] [CANCEL]")
	return box("Cost profile", lines)
}

// RenderImageProfile renders the image profile window.
func RenderImageProfile(u profile.UserProfile, offer *qos.ImageQoS) string {
	d, w := u.Desired.Image, u.Worst.Image
	if d == nil || w == nil {
		return box("Image profile", []string{"(no image requirement)"})
	}
	var offRes *int
	lines := []string{
		fmt.Sprintf("color      desired %-12s min %s", d.Color, w.Color),
	}
	if offer != nil {
		offRes = &offer.Resolution
	}
	lines = append(lines, "resolution "+bar(qos.MinResolution, qos.HDTVResolution, d.Resolution, w.Resolution, offRes))
	if offer != nil {
		lines = append(lines, fmt.Sprintf("offer: %s", offer))
	}
	lines = append(lines, "", "[OK] [Save] [Save as] [show example] [CANCEL]")
	return box("Image profile", lines)
}

// RenderTextProfile renders the text profile window.
func RenderTextProfile(u profile.UserProfile, offer *qos.TextQoS) string {
	d := u.Desired.Text
	if d == nil {
		return box("Text profile", []string{"(no text requirement)"})
	}
	lines := []string{fmt.Sprintf("language   %s", d.Language)}
	if offer != nil {
		lines = append(lines, fmt.Sprintf("offer: %s", offer))
	}
	lines = append(lines, "", "[OK] [Save] [Save as] [CANCEL]")
	return box("Text profile", lines)
}

// RenderTimeProfile renders the time profile window ("specified in terms of
// seconds", Figure 2).
func RenderTimeProfile(u profile.UserProfile) string {
	lines := []string{
		fmt.Sprintf("max start delay  %s", u.Desired.Time.MaxStartDelay),
		fmt.Sprintf("choice period    %s", choiceOf(u)),
	}
	lines = append(lines, "", "[OK] [Save] [Save as] [CANCEL]")
	return box("Time profile", lines)
}

// RenderImportanceProfile renders the importance window: Section 3's
// facility for the user to "set importance values for QoS parameters of
// interest" — which media matter, which parameters within them, and how
// much a dollar weighs against quality.
func RenderImportanceProfile(u profile.UserProfile) string {
	im := u.Importance
	lines := []string{"QoS parameter importances:"}
	colorLine := func(label string, m profile.ColorWeights) string {
		return fmt.Sprintf("%s  b&w %.3g  grey %.3g  color %.3g  super %.3g",
			label, m[qos.BlackWhite], m[qos.Grey], m[qos.Color], m[qos.SuperColor])
	}
	lines = append(lines, "  "+colorLine("video color ", im.VideoColor))
	lines = append(lines, fmt.Sprintf("  frame rate    frozen %.3g  TV %.3g  HDTV %.3g",
		im.FrameRate.Eval(qos.FrozenRate), im.FrameRate.Eval(qos.TVRate), im.FrameRate.Eval(qos.HDTVRate)))
	lines = append(lines, fmt.Sprintf("  resolution    min %.3g  TV %.3g  HDTV %.3g",
		im.Resolution.Eval(qos.MinResolution), im.Resolution.Eval(qos.TVResolution), im.Resolution.Eval(qos.HDTVResolution)))
	lines = append(lines, fmt.Sprintf("  audio quality telephone %.3g  CD %.3g",
		im.AudioGrade[qos.TelephoneQuality], im.AudioGrade[qos.CDQuality]))
	if im.Language[0].Weight != 0 {
		lines = append(lines, fmt.Sprintf("  language      english %.3g  french %.3g",
			im.Language.Of(qos.English), im.Language.Of(qos.French)))
	}
	lines = append(lines, fmt.Sprintf("cost importance: %.3g per $", im.CostPerDollar))
	lines = append(lines, "", "[OK] [Save] [Save as] [CANCEL]")
	return box("Importance profile", lines)
}

// InfoResult is the input of the information window.
type InfoResult struct {
	// Status is the paper-style negotiation status name.
	Status string
	// Offer is present when the system reserved a configuration.
	Offer *profile.MMProfile
	// Cost is the price of the reserved offer.
	Cost cost.Money
	// ChoicePeriod documents the confirmation window.
	ChoicePeriod string
	// Reason explains failures.
	Reason string
}

// RenderInformation renders the information window (Figure 6): the
// negotiation status — FAILEDTRYLATER or FAILEDWITHOUTOFFER on failure, the
// QoS parameter values and cost otherwise — and the OK button governed by
// the choicePeriod timer.
func RenderInformation(r InfoResult) string {
	lines := []string{fmt.Sprintf("Negotiation result: %s", r.Status)}
	if r.Reason != "" {
		lines = append(lines, "  "+r.Reason)
	}
	if r.Offer != nil {
		lines = append(lines, "", "The system offers:")
		if r.Offer.Video != nil {
			lines = append(lines, fmt.Sprintf("  video %s", r.Offer.Video))
		}
		if r.Offer.Audio != nil {
			lines = append(lines, fmt.Sprintf("  audio %s", r.Offer.Audio))
		}
		if r.Offer.Image != nil {
			lines = append(lines, fmt.Sprintf("  image %s", r.Offer.Image))
		}
		if r.Offer.Text != nil {
			lines = append(lines, fmt.Sprintf("  text  %s", r.Offer.Text))
		}
		lines = append(lines, fmt.Sprintf("  cost  %s", r.Cost))
		lines = append(lines, "", fmt.Sprintf("Press OK within %s to start the delivery.", r.ChoicePeriod))
		lines = append(lines, "", "[OK] [CANCEL]")
	} else {
		lines = append(lines, "", "[OK]")
	}
	return box("Information window", lines)
}

// FailedSections derives the red constraint flags of the profile component
// window: the media whose offered QoS falls short of the desired profile,
// plus "cost" when the offer exceeds the budget.
func FailedSections(u profile.UserProfile, offer profile.MMProfile) map[string]bool {
	failed := make(map[string]bool)
	if d := u.Desired.Video; d != nil {
		if offer.Video == nil || !offer.Video.Satisfies(*d) {
			failed["video"] = true
		}
	}
	if d := u.Desired.Audio; d != nil {
		if offer.Audio == nil || !offer.Audio.Satisfies(*d) {
			failed["audio"] = true
		}
	}
	if d := u.Desired.Image; d != nil {
		if offer.Image == nil || !offer.Image.Satisfies(*d) {
			failed["image"] = true
		}
	}
	if d := u.Desired.Text; d != nil {
		if offer.Text == nil || !offer.Text.Satisfies(*d) {
			failed["text"] = true
		}
	}
	if offer.Cost.MaxCost > u.Desired.Cost.MaxCost {
		failed["cost"] = true
	}
	return failed
}
