package profile

import (
	"math"
	"math/rand/v2"

	"qosneg/internal/qos"
	"qosneg/internal/wordhash"
)

// The digest's per-process secrets: its start state and its multiplier
// key. A digest is only ever compared with one taken in the same process
// (the offer cache lives in memory), so it need not be stable across runs;
// seeding it keeps a crafted profile from colliding with another on
// purpose.
var digestStart, digestKey = rand.Uint64(), rand.Uint64()

// mix folds two words into a digest state (wordhash.Mix under the secret
// key).
func mix(h, a, b uint64) uint64 { return wordhash.Mix(h, a, b, digestKey) }

func floatWord(f float64) uint64 { return math.Float64bits(f) }

// RankDigest returns a 64-bit digest of exactly the profile fields that
// classification (steps 3–4, offer.TopKFromCandidates) reads: the importance
// profile, the Desired and Worst QoS sections, and the desired budget. Two
// profiles with equal digests classify any candidate set identically, up to
// a 64-bit hash collision, so a classification memoized for one serves the
// other. Fields classification does not read — the name, the time profiles,
// the guarantee (which keys the offer cache itself) and the worst-acceptable
// cost — are left out, so profiles differing only there share a digest.
//
// The digest is seeded once per process. It folds the importance profile's
// arrays straight, two words to a mix: every position is fixed, so equal
// importance profiles (==) digest equally.
func (u *UserProfile) RankDigest() uint64 {
	im := &u.Importance
	h := digestStart
	for k := range im.VideoColor {
		h = mix(h, floatWord(im.VideoColor[k]), floatWord(im.ImageColor[k]))
	}
	for _, w := range im.AudioGrade {
		h = mix(h, floatWord(w), 0)
	}
	for _, p := range im.Language {
		h = mix(h, languageKey(p.Language), floatWord(p.Weight))
	}
	h = mixCurve(h, &im.FrameRate)
	h = mixCurve(h, &im.Resolution)
	h = mixCurve(h, &im.ImageResolution)
	h = mix(h, floatWord(im.CostPerDollar), 0)
	h = mixSections(h, &u.Desired)
	h = mixSections(h, &u.Worst)
	return mix(h, present(&u.Desired)|present(&u.Worst)<<4, uint64(u.Desired.Cost.MaxCost))
}

// languageKey digests a language, an importance table's or a section's;
// the empty language, the common "any language" and an empty table pair,
// costs no hash call.
func languageKey(l qos.Language) uint64 {
	if l == "" {
		return 0
	}
	return wordhash.String(digestStart, string(l))
}

// mixCurve folds a curve's count and every anchor slot, one mix each.
func mixCurve(h uint64, c *Curve) uint64 {
	h = mix(h, uint64(c.N), 0)
	for _, p := range c.Anchors {
		h = mix(h, uint64(p.X), floatWord(p.Y))
	}
	return h
}

// mixSections folds every parameter of an MM profile's QoS sections that
// Satisfies compares, an absent section's as zeros; present tells absent
// from zero.
func mixSections(h uint64, p *MMProfile) uint64 {
	var (
		v qos.VideoQoS
		a qos.AudioQoS
		i qos.ImageQoS
		t qos.TextQoS
	)
	if p.Video != nil {
		v = *p.Video
	}
	if p.Audio != nil {
		a = *p.Audio
	}
	if p.Image != nil {
		i = *p.Image
	}
	if p.Text != nil {
		t = *p.Text
	}
	h = mix(h, uint64(v.Color), uint64(v.FrameRate))
	h = mix(h, uint64(v.Resolution), uint64(a.Grade))
	h = mix(h, languageKey(a.Language), uint64(i.Color))
	return mix(h, uint64(i.Resolution), languageKey(t.Language))
}

// present is the bit set of an MM profile's QoS sections.
func present(p *MMProfile) uint64 {
	var b uint64
	for i, ok := range [...]bool{p.Video != nil, p.Audio != nil, p.Image != nil, p.Text != nil} {
		if ok {
			b |= 1 << i
		}
	}
	return b
}
