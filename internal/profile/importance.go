package profile

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"qosneg/internal/cost"
	"qosneg/internal/qos"
)

// MaxAnchors is how many anchors a curve holds: Figure 2 anchors each
// curve at three values (frozen, TV and HDTV), and one is spare.
const MaxAnchors = 4

// MaxLanguages is how many languages an importance profile weighs; the
// prototype's documents come in two.
const MaxLanguages = 4

// Point is one user-specified anchor of an importance curve: the importance
// Y of the QoS parameter value X (e.g. X=25 frames/s, Y=9).
type Point struct {
	X int     `json:"x"`
	Y float64 `json:"y"`
}

// Curve is a piecewise-linear importance function over an integer QoS
// parameter. Section 5.2.2(a): "the user specifies the importance factors
// for only a specific set of values ... If the user selects a frame rate
// different from these specific values, the corresponding importance factor
// is computed assuming that the importance increases (or decreases)
// linearly from frozen rate to TV rate, and from TV rate to HDTV rate."
// Outside the anchored range the curve is clamped to the boundary values.
//
// A curve is a value: its first N anchors, sorted by X, are the curve, and
// the rest are zero, so two curves with the same anchors are ==.
type Curve struct {
	Anchors [MaxAnchors]Point
	N       int
}

// NewCurve builds a curve from anchors, sorting them by X. A curve given
// more than MaxAnchors anchors keeps the first MaxAnchors and its count,
// which Validate rejects.
func NewCurve(points ...Point) Curve {
	c := Curve{N: len(points)}
	copy(c.Anchors[:], points)
	slices.SortStableFunc(c.Points(), func(a, b Point) int { return cmp.Compare(a.X, b.X) })
	return c
}

// Points returns the curve's anchors, nil when it has none; the slice
// aliases the curve.
func (c *Curve) Points() []Point {
	if c.N <= 0 {
		return nil
	}
	return c.Anchors[:min(c.N, MaxAnchors)]
}

// Validate reports an error for an anchor count outside [0, MaxAnchors],
// anchors that are unsorted or share a position, a non-finite importance,
// or a non-zero anchor past the count.
func (c Curve) Validate() error {
	if c.N < 0 || c.N > MaxAnchors {
		return fmt.Errorf("importance curve: %d anchors, at most %d", c.N, MaxAnchors)
	}
	for i, p := range c.Points() {
		switch {
		case !finite(p.Y):
			return fmt.Errorf("importance curve: anchor at %d weighs %g", p.X, p.Y)
		case i > 0 && p.X == c.Anchors[i-1].X:
			return fmt.Errorf("importance curve: duplicate anchor at %d", p.X)
		case i > 0 && p.X < c.Anchors[i-1].X:
			return fmt.Errorf("importance curve: anchors not sorted at %d", p.X)
		}
	}
	for _, p := range c.Anchors[c.N:] {
		if p != (Point{}) {
			return fmt.Errorf("importance curve: anchor %+v past the count %d", p, c.N)
		}
	}
	return nil
}

// Eval returns the importance of value x: the anchored value when x is an
// anchor, the linear interpolation between the surrounding anchors
// otherwise, clamped at the extreme anchors. An empty curve is identically
// zero.
func (c *Curve) Eval(x int) float64 {
	ps := c.Points()
	n := len(ps)
	if n == 0 {
		return 0
	}
	if x <= ps[0].X {
		return ps[0].Y
	}
	if x >= ps[n-1].X {
		return ps[n-1].Y
	}
	i := 1
	for ps[i].X < x {
		i++
	}
	lo, hi := ps[i-1], ps[i]
	if hi.X == x {
		return hi.Y
	}
	frac := float64(x-lo.X) / float64(hi.X-lo.X)
	return lo.Y + frac*(hi.Y-lo.Y)
}

// ColorWeights is the importance of each color quality of Figure 2, indexed
// by qos.ColorQuality. Index 0 is no color quality and weighs nothing.
type ColorWeights [qos.SuperColor + 1]float64

// AudioWeights is the importance of each audio grade of Figure 2, indexed
// by qos.AudioGrade. Index 0 is no grade and weighs nothing.
type AudioWeights [qos.CDQuality + 1]float64

// LanguageWeight is the importance of one language.
type LanguageWeight struct {
	Language qos.Language
	Weight   float64
}

// LanguageWeights holds the importance of up to MaxLanguages languages,
// kept canonical so that == compares them: the non-zero weights first,
// sorted by language with no language twice, then zero pairs. A language
// absent from the table weighs nothing, as one of weight zero would.
type LanguageWeights [MaxLanguages]LanguageWeight

// Of returns the importance of language l.
func (w *LanguageWeights) Of(l qos.Language) float64 {
	for i := range w {
		if w[i].Language == l {
			return w[i].Weight
		}
	}
	return 0
}

// Importance is Section 3's importance profile: per-parameter importance
// factors plus the cost importance ("the importance of a cost of 1$").
// Zero weights and empty curves contribute zero importance, matching the
// paper's third classification example where all QoS importances are 0.
//
// An importance profile is a comparable value: copying it shares nothing,
// and == tells whether two profiles weigh every parameter alike. Its JSON
// form is the map-and-slice form of importanceJSON.
type Importance struct {
	// VideoColor weighs each color quality of Figure 2.
	VideoColor ColorWeights
	// FrameRate anchors importance at the Figure 2 frame rates (frozen,
	// TV, HDTV); other rates interpolate linearly.
	FrameRate Curve
	// Resolution anchors importance at the Figure 2 resolutions.
	Resolution Curve
	// AudioGrade weighs the Figure 2 audio qualities.
	AudioGrade AudioWeights
	// Language expresses preferences such as "french is more important
	// than english" (importance example (4) of Section 3).
	Language LanguageWeights
	// ImageColor and ImageResolution weigh still-image quality.
	ImageColor      ColorWeights
	ImageResolution Curve
	// CostPerDollar is Section 5.2.2(b)'s cost importance: the importance
	// of one dollar of price. The cost importance of an offer is
	// CostPerDollar × offer cost.
	CostPerDollar float64
}

// weight returns w's entry for scale value k, and zero outside the scale.
func weight[K ~int](w []float64, k K) float64 {
	if k < 0 || int(k) >= len(w) {
		return 0
	}
	return w[k]
}

// QoS returns the QoS importance of a single monomedia setting: the sum of
// the importance values of its parameter values (Section 5.2.2(a): "we have
// only to sum the importance values which correspond to the values of the
// QoS parameters"). QoS, Cost and Overall take a pointer: steps 3–4 call
// them per candidate and per offer, and a value receiver copies the whole
// Importance on every call.
func (im *Importance) QoS(s qos.Setting) float64 {
	switch {
	case s.Video != nil:
		return weight(im.VideoColor[:], s.Video.Color) +
			im.FrameRate.Eval(s.Video.FrameRate) +
			im.Resolution.Eval(s.Video.Resolution)
	case s.Audio != nil:
		return weight(im.AudioGrade[:], s.Audio.Grade) + im.Language.Of(s.Audio.Language)
	case s.Image != nil:
		return weight(im.ImageColor[:], s.Image.Color) + im.ImageResolution.Eval(s.Image.Resolution)
	case s.Text != nil:
		return im.Language.Of(s.Text.Language)
	}
	return 0
}

// Cost returns the cost importance of a price: CostPerDollar × price in
// dollars (Section 5.2.2(b)).
func (im *Importance) Cost(m cost.Money) float64 { return im.CostPerDollar * m.Float() }

// Overall returns the overall importance factor of an offer with the given
// monomedia settings and total cost (Section 5.2.2(c)):
// overall_importance = QoS_importance − cost_importance.
func (im *Importance) Overall(settings []qos.Setting, price cost.Money) float64 {
	var q float64
	for _, s := range settings {
		q += im.QoS(s)
	}
	return q - im.Cost(price)
}

// Validate checks every weight and curve: each weight is finite, a scale's
// index 0 weighs nothing, the language table is canonical, and each curve
// is valid. Classification orders offers by sums of these, so a NaN would
// break the orderers' strict total order.
func (im Importance) Validate() error {
	if im.VideoColor[0] != 0 || im.AudioGrade[0] != 0 || im.ImageColor[0] != 0 {
		return fmt.Errorf("importance: a weight for scale value 0")
	}
	weights := append(append(im.VideoColor[:], im.AudioGrade[:]...), im.ImageColor[:]...)
	for _, w := range append(weights, im.CostPerDollar) {
		if !finite(w) {
			return fmt.Errorf("importance: a weight of %g", w)
		}
	}
	for i, p := range im.Language {
		switch {
		case !finite(p.Weight):
			return fmt.Errorf("importance: language %q weighs %g", p.Language, p.Weight)
		case p.Weight == 0 && p != (LanguageWeight{}):
			return fmt.Errorf("importance: language %q listed with weight 0", p.Language)
		case p.Weight != 0 && i > 0 && (im.Language[i-1].Weight == 0 || p.Language <= im.Language[i-1].Language):
			return fmt.Errorf("importance: language %q out of order", p.Language)
		}
	}
	for _, c := range [...]*Curve{&im.FrameRate, &im.Resolution, &im.ImageResolution} {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("importance: %w", err)
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// importanceJSON is the JSON form of an importance profile, in which
// profile files and qosctl's and profiletool's input are written: a scale's
// weights are a map from scale value to weight, omitted when empty, and a
// curve is an object holding its anchors, null when it has none.
type importanceJSON struct {
	VideoColor      map[qos.ColorQuality]float64 `json:"videoColor,omitempty"`
	FrameRate       curveJSON                    `json:"frameRate"`
	Resolution      curveJSON                    `json:"resolution"`
	AudioGrade      map[qos.AudioGrade]float64   `json:"audioGrade,omitempty"`
	Language        map[qos.Language]float64     `json:"language,omitempty"`
	ImageColor      map[qos.ColorQuality]float64 `json:"imageColor,omitempty"`
	ImageResolution curveJSON                    `json:"imageResolution"`
	CostPerDollar   float64                      `json:"costPerDollar"`
}

type curveJSON struct {
	Points []Point `json:"points"`
}

// MarshalJSON writes the JSON form, leaving zero weights out.
func (im Importance) MarshalJSON() ([]byte, error) {
	j := importanceJSON{
		VideoColor: toMap[qos.ColorQuality](im.VideoColor[:]), FrameRate: curveJSON{im.FrameRate.Points()},
		Resolution: curveJSON{im.Resolution.Points()}, AudioGrade: toMap[qos.AudioGrade](im.AudioGrade[:]),
		Language: map[qos.Language]float64{}, ImageColor: toMap[qos.ColorQuality](im.ImageColor[:]),
		ImageResolution: curveJSON{im.ImageResolution.Points()}, CostPerDollar: im.CostPerDollar,
	}
	for _, p := range im.Language {
		if p.Weight != 0 {
			j.Language[p.Language] = p.Weight
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON reads the JSON form. A key outside its scale, more than
// MaxLanguages languages or more than MaxAnchors anchors is an error; a
// zero weight is dropped, since it weighs what an absent key does. Anchors
// keep their order, which Validate checks.
func (im *Importance) UnmarshalJSON(data []byte) error {
	var j importanceJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	out := Importance{CostPerDollar: j.CostPerDollar}
	n := 0
	for l, w := range j.Language {
		if w == 0 {
			continue
		}
		if n == MaxLanguages {
			return fmt.Errorf("importance: more than %d languages weighed", MaxLanguages)
		}
		out.Language[n], n = LanguageWeight{l, w}, n+1
	}
	slices.SortFunc(out.Language[:n], func(a, b LanguageWeight) int { return cmp.Compare(a.Language, b.Language) })
	if err := errors.Join(fromMap(out.VideoColor[:], j.VideoColor), fromMap(out.AudioGrade[:], j.AudioGrade),
		fromMap(out.ImageColor[:], j.ImageColor), fromPoints(&out.FrameRate, j.FrameRate),
		fromPoints(&out.Resolution, j.Resolution), fromPoints(&out.ImageResolution, j.ImageResolution)); err != nil {
		return err
	}
	*im = out
	return nil
}

func toMap[K ~int](w []float64) map[K]float64 {
	m := make(map[K]float64)
	for k, v := range w {
		if v != 0 {
			m[K(k)] = v
		}
	}
	return m
}

func fromMap[K ~int](w []float64, m map[K]float64) error {
	for k, v := range m {
		if k <= 0 || int(k) >= len(w) {
			return fmt.Errorf("importance: %T %d is outside its scale", k, k)
		}
		w[k] = v
	}
	return nil
}

func fromPoints(c *Curve, j curveJSON) error {
	if len(j.Points) > MaxAnchors {
		return fmt.Errorf("importance: a curve of %d anchors, at most %d", len(j.Points), MaxAnchors)
	}
	c.N = copy(c.Anchors[:], j.Points)
	return nil
}

// DefaultImportance returns the default importance values the profile
// manager associates with each QoS parameter value of Figure 2 ("We
// associate a default importance value for each QoS parameter value.
// However, at any time during the negotiation phase, the user may modify
// these values"). The defaults rank quality monotonically and value QoS
// slightly above cost.
func DefaultImportance() Importance {
	return Importance{
		VideoColor: ColorWeights{
			qos.BlackWhite: 2, qos.Grey: 6, qos.Color: 9, qos.SuperColor: 10,
		},
		FrameRate: NewCurve(
			Point{X: qos.FrozenRate, Y: 1},
			Point{X: qos.TVRate, Y: 9},
			Point{X: qos.HDTVRate, Y: 10},
		),
		Resolution: NewCurve(
			Point{X: qos.MinResolution, Y: 1},
			Point{X: qos.TVResolution, Y: 9},
			Point{X: qos.HDTVResolution, Y: 10},
		),
		AudioGrade: AudioWeights{
			qos.TelephoneQuality: 5, qos.CDQuality: 9,
		},
		Language: LanguageWeights{
			{qos.English, 5}, {qos.French, 5},
		},
		ImageColor: ColorWeights{
			qos.BlackWhite: 1, qos.Grey: 3, qos.Color: 5, qos.SuperColor: 6,
		},
		ImageResolution: NewCurve(
			Point{X: qos.MinResolution, Y: 1},
			Point{X: qos.TVResolution, Y: 4},
			Point{X: qos.HDTVResolution, Y: 5},
		),
		CostPerDollar: 1,
	}
}
