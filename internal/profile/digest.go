package profile

import (
	"math"
	"math/rand/v2"
	"slices"

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
// The digest is seeded once per process. An absent map entry and an entry
// of weight 0 weigh the same in Importance.QoS, so they digest the same.
func (u *UserProfile) RankDigest() uint64 {
	im := &u.Importance
	h := digestStart
	h = weights(h, im.VideoColor, colorKeys[:], enumKey)
	h = weights(h, im.ImageColor, colorKeys[:], enumKey)
	h = weights(h, im.AudioGrade, gradeKeys[:], enumKey)
	h = weights(h, im.Language, languageKeys[:], languageKey)
	h = mix(h, uint64(len(im.FrameRate.Points)), uint64(len(im.Resolution.Points)))
	h = mix(h, uint64(len(im.ImageResolution.Points)), floatWord(im.CostPerDollar))
	h = mixCurve(h, im.FrameRate)
	h = mixCurve(h, im.Resolution)
	h = mixCurve(h, im.ImageResolution)
	h = mixSections(h, &u.Desired)
	h = mixSections(h, &u.Worst)
	return mix(h, present(&u.Desired)|present(&u.Worst)<<4, uint64(u.Desired.Cost.MaxCost))
}

// The keys weights looks up directly, two to a mix: the closed enums of
// Figure 2, and the prototype's two languages.
var (
	colorKeys    = [...]qos.ColorQuality{qos.BlackWhite, qos.Grey, qos.Color, qos.SuperColor}
	gradeKeys    = [...]qos.AudioGrade{qos.TelephoneQuality, qos.CDQuality}
	languageKeys = [...]qos.Language{qos.English, qos.French}
)

// weights folds an importance map's weights for the known keys, an even
// number of them, by direct lookup: ranging over a map costs more than a
// handful of lookups. Only a map holding another key — an invalid enum
// value, or a language outside the prototype's two — is ranged over, to
// fold those entries in too, independently of iteration order.
func weights[K comparable](h uint64, m map[K]float64, known []K, key func(K) uint64) uint64 {
	found := 0
	for i := 0; i < len(known); i += 2 {
		a, aok := m[known[i]]
		b, bok := m[known[i+1]]
		if aok {
			found++
		}
		if bok {
			found++
		}
		h = mix(h, floatWord(a), floatWord(b))
	}
	if found == len(m) {
		return h
	}
	var rest uint64
	for k, w := range m {
		if !slices.Contains(known, k) {
			rest ^= mix(key(k), floatWord(w), 0)
		}
	}
	return mix(h, rest, uint64(len(m)))
}

// enumKey and languageKey digest one importance-map key for weights, or a
// section's language; the empty language, the common "any language",
// costs no hash call.
func enumKey[K ~int](k K) uint64 { return mix(digestStart, uint64(k), 0) }

func languageKey(l qos.Language) uint64 {
	if l == "" {
		return 0
	}
	return wordhash.String(digestStart, string(l))
}

// mixCurve folds a curve's anchors, one mix each; RankDigest folds the
// anchor counts in first.
func mixCurve(h uint64, c Curve) uint64 {
	for _, p := range c.Points {
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
