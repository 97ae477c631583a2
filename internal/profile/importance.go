package profile

import (
	"fmt"
	"sort"

	"qosneg/internal/cost"
	"qosneg/internal/qos"
)

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
type Curve struct {
	Points []Point `json:"points"`
}

// NewCurve builds a curve from anchors, sorting them by X.
func NewCurve(points ...Point) Curve {
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].X < ps[j].X })
	return Curve{Points: ps}
}

// Validate reports an error for duplicate anchor positions.
func (c Curve) Validate() error {
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].X == c.Points[i-1].X {
			return fmt.Errorf("importance curve: duplicate anchor at %d", c.Points[i].X)
		}
		if c.Points[i].X < c.Points[i-1].X {
			return fmt.Errorf("importance curve: anchors not sorted at %d", c.Points[i].X)
		}
	}
	return nil
}

// Eval returns the importance of value x: the anchored value when x is an
// anchor, the linear interpolation between the surrounding anchors
// otherwise, clamped at the extreme anchors. An empty curve is identically
// zero.
func (c Curve) Eval(x int) float64 {
	n := len(c.Points)
	if n == 0 {
		return 0
	}
	if x <= c.Points[0].X {
		return c.Points[0].Y
	}
	if x >= c.Points[n-1].X {
		return c.Points[n-1].Y
	}
	i := sort.Search(n, func(i int) bool { return c.Points[i].X >= x })
	lo, hi := c.Points[i-1], c.Points[i]
	if hi.X == x {
		return hi.Y
	}
	frac := float64(x-lo.X) / float64(hi.X-lo.X)
	return lo.Y + frac*(hi.Y-lo.Y)
}

// Importance is Section 3's importance profile: per-parameter importance
// factors plus the cost importance ("the importance of a cost of 1$").
// Zero-valued maps and curves contribute zero importance, matching the
// paper's third classification example where all QoS importances are 0.
type Importance struct {
	// VideoColor maps each color quality of Figure 2 to its importance.
	VideoColor map[qos.ColorQuality]float64 `json:"videoColor,omitempty"`
	// FrameRate anchors importance at the Figure 2 frame rates (frozen,
	// TV, HDTV); other rates interpolate linearly.
	FrameRate Curve `json:"frameRate"`
	// Resolution anchors importance at the Figure 2 resolutions.
	Resolution Curve `json:"resolution"`
	// AudioGrade maps the Figure 2 audio qualities to their importance.
	AudioGrade map[qos.AudioGrade]float64 `json:"audioGrade,omitempty"`
	// Language expresses preferences such as "french is more important
	// than english" (importance example (4) of Section 3).
	Language map[qos.Language]float64 `json:"language,omitempty"`
	// ImageColor and ImageResolution weigh still-image quality.
	ImageColor      map[qos.ColorQuality]float64 `json:"imageColor,omitempty"`
	ImageResolution Curve                        `json:"imageResolution"`
	// CostPerDollar is Section 5.2.2(b)'s cost importance: the importance
	// of one dollar of price. The cost importance of an offer is
	// CostPerDollar × offer cost.
	CostPerDollar float64 `json:"costPerDollar"`
}

// QoS returns the QoS importance of a single monomedia setting: the sum of
// the importance values of its parameter values (Section 5.2.2(a): "we have
// only to sum the importance values which correspond to the values of the
// QoS parameters"). QoS, Cost and Overall take a pointer: steps 3–4 call
// them per candidate and per offer, and a value receiver copies the
// 112-byte Importance on every call.
func (im *Importance) QoS(s qos.Setting) float64 {
	switch {
	case s.Video != nil:
		return im.VideoColor[s.Video.Color] +
			im.FrameRate.Eval(s.Video.FrameRate) +
			im.Resolution.Eval(s.Video.Resolution)
	case s.Audio != nil:
		return im.AudioGrade[s.Audio.Grade] + im.Language[s.Audio.Language]
	case s.Image != nil:
		return im.ImageColor[s.Image.Color] + im.ImageResolution.Eval(s.Image.Resolution)
	case s.Text != nil:
		return im.Language[s.Text.Language]
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

// Validate checks the curves.
func (im Importance) Validate() error {
	for _, c := range []Curve{im.FrameRate, im.Resolution, im.ImageResolution} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (im Importance) clone() Importance {
	c := im
	c.VideoColor = cloneMap(im.VideoColor)
	c.AudioGrade = cloneMap(im.AudioGrade)
	c.Language = cloneMap(im.Language)
	c.ImageColor = cloneMap(im.ImageColor)
	c.FrameRate = NewCurve(im.FrameRate.Points...)
	c.Resolution = NewCurve(im.Resolution.Points...)
	c.ImageResolution = NewCurve(im.ImageResolution.Points...)
	return c
}

func cloneMap[K comparable](m map[K]float64) map[K]float64 {
	if m == nil {
		return nil
	}
	out := make(map[K]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// DefaultImportance returns the default importance values the profile
// manager associates with each QoS parameter value of Figure 2 ("We
// associate a default importance value for each QoS parameter value.
// However, at any time during the negotiation phase, the user may modify
// these values"). The defaults rank quality monotonically and value QoS
// slightly above cost.
func DefaultImportance() Importance {
	return Importance{
		VideoColor: map[qos.ColorQuality]float64{
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
		AudioGrade: map[qos.AudioGrade]float64{
			qos.TelephoneQuality: 5, qos.CDQuality: 9,
		},
		Language: map[qos.Language]float64{
			qos.English: 5, qos.French: 5,
		},
		ImageColor: map[qos.ColorQuality]float64{
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
