package profile

import (
	"math"
	"testing"
	"testing/quick"

	"qosneg/internal/cost"
	"qosneg/internal/qos"
)

// paperImportance reproduces the importance factors of the Section 5.2.2
// classification example: color 9, grey 6, black&white 2, TV resolution 9,
// 25 frames/s 9, 15 frames/s 5, cost importance 4.
func paperImportance() Importance {
	return Importance{
		VideoColor: ColorWeights{
			qos.BlackWhite: 2, qos.Grey: 6, qos.Color: 9,
		},
		FrameRate:     NewCurve(Point{X: 15, Y: 5}, Point{X: 25, Y: 9}),
		Resolution:    NewCurve(Point{X: qos.TVResolution, Y: 9}),
		CostPerDollar: 4,
	}
}

func paperOffers() []struct {
	qos  qos.VideoQoS
	cost cost.Money
} {
	return []struct {
		qos  qos.VideoQoS
		cost cost.Money
	}{
		{qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 25, Resolution: qos.TVResolution}, cost.DollarsFloat(2.5)},
		{qos.VideoQoS{Color: qos.Color, FrameRate: 15, Resolution: qos.TVResolution}, cost.Dollars(4)},
		{qos.VideoQoS{Color: qos.Grey, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(3)},
		{qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution}, cost.Dollars(5)},
	}
}

// TestPaperOIFSetting1 reproduces Section 5.2.2 example (1): OIFs 10, 7, 12, 7.
func TestPaperOIFSetting1(t *testing.T) {
	im := paperImportance()
	want := []float64{10, 7, 12, 7}
	for i, o := range paperOffers() {
		got := im.Overall([]qos.Setting{qos.VideoSetting(o.qos)}, o.cost)
		if got != want[i] {
			t.Errorf("offer%d OIF = %g, want %g", i+1, got, want[i])
		}
	}
}

// TestPaperOIFSetting2 reproduces example (2): cost importance 0 → OIFs
// 20, 23, 24, 27.
func TestPaperOIFSetting2(t *testing.T) {
	im := paperImportance()
	im.CostPerDollar = 0
	want := []float64{20, 23, 24, 27}
	for i, o := range paperOffers() {
		got := im.Overall([]qos.Setting{qos.VideoSetting(o.qos)}, o.cost)
		if got != want[i] {
			t.Errorf("offer%d OIF = %g, want %g", i+1, got, want[i])
		}
	}
}

// TestPaperOIFSetting3 reproduces example (3): all QoS importances 0, cost
// importance 4 → OIFs −10, −16, −12, −20.
func TestPaperOIFSetting3(t *testing.T) {
	im := Importance{CostPerDollar: 4}
	want := []float64{-10, -16, -12, -20}
	for i, o := range paperOffers() {
		got := im.Overall([]qos.Setting{qos.VideoSetting(o.qos)}, o.cost)
		if got != want[i] {
			t.Errorf("offer%d OIF = %g, want %g", i+1, got, want[i])
		}
	}
}

func TestCurveEval(t *testing.T) {
	c := NewCurve(Point{X: 1, Y: 1}, Point{X: 25, Y: 9}, Point{X: 60, Y: 10})
	cases := []struct {
		x    int
		want float64
	}{
		{1, 1}, {25, 9}, {60, 10}, // anchors
		{13, 5},         // midpoint of 1..25
		{0, 1}, {-5, 1}, // clamp low
		{61, 10}, {1000, 10}, // clamp high
		{42, 9 + 17.0/35}, // interpolation on the 25..60 segment
	}
	for _, tc := range cases {
		if got := c.Eval(tc.x); !close(got, tc.want) {
			t.Errorf("Eval(%d) = %g, want %g", tc.x, got, tc.want)
		}
	}
	if got := new(Curve).Eval(25); got != 0 {
		t.Errorf("empty curve Eval = %g", got)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestCurveInterpolationDirection(t *testing.T) {
	// "importance increases (or decreases) linearly": a decreasing anchor
	// pair interpolates downward too.
	c := NewCurve(Point{X: 0, Y: 10}, Point{X: 10, Y: 0})
	if got := c.Eval(5); got != 5 {
		t.Errorf("Eval(5) = %g, want 5", got)
	}
}

func TestCurveValidate(t *testing.T) {
	if err := NewCurve(Point{X: 1, Y: 1}, Point{X: 2, Y: 2}).Validate(); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
	if err := NewCurve(Point{X: 1, Y: 1}, Point{X: 1, Y: 2}).Validate(); err == nil {
		t.Error("duplicate anchor accepted")
	}
	unsorted := Curve{Anchors: [MaxAnchors]Point{{X: 5, Y: 1}, {X: 1, Y: 1}}, N: 2}
	if err := unsorted.Validate(); err == nil {
		t.Error("unsorted curve accepted")
	}
	full := NewCurve(Point{X: 1}, Point{X: 2}, Point{X: 3}, Point{X: 4})
	if err := full.Validate(); err != nil {
		t.Errorf("a curve of %d anchors rejected: %v", MaxAnchors, err)
	}
	over := NewCurve(Point{X: 1}, Point{X: 2}, Point{X: 3}, Point{X: 4}, Point{X: 5})
	if err := over.Validate(); err == nil {
		t.Errorf("a curve of %d anchors accepted", MaxAnchors+1)
	}
	if got := over.Eval(9); got != 0 {
		t.Errorf("an over-full curve evaluates %g past its stored anchors, want 0", got)
	}
	past := NewCurve(Point{X: 1, Y: 1})
	past.Anchors[2] = Point{X: 7, Y: 1}
	if err := past.Validate(); err == nil {
		t.Error("an anchor past the count accepted")
	}
	if err := NewCurve(Point{X: 1, Y: math.NaN()}).Validate(); err == nil {
		t.Error("a NaN anchor accepted")
	}
}

func TestImportancePerMedia(t *testing.T) {
	im := DefaultImportance()
	audio := im.QoS(qos.AudioSetting(qos.AudioQoS{Grade: qos.CDQuality, Language: qos.French}))
	if audio != 9+5 {
		t.Errorf("audio importance = %g", audio)
	}
	text := im.QoS(qos.TextSetting(qos.TextQoS{Language: qos.English}))
	if text != 5 {
		t.Errorf("text importance = %g", text)
	}
	img := im.QoS(qos.ImageSetting(qos.ImageQoS{Color: qos.Color, Resolution: qos.TVResolution}))
	if img != 5+4 {
		t.Errorf("image importance = %g", img)
	}
	if im.QoS(qos.Setting{}) != 0 {
		t.Error("zero setting importance must be 0")
	}
}

func TestDefaultImportanceMonotone(t *testing.T) {
	im := DefaultImportance()
	colors := qos.ColorQualities()
	for i := 1; i < len(colors); i++ {
		if im.VideoColor[colors[i]] <= im.VideoColor[colors[i-1]] {
			t.Errorf("video color importance not increasing at %v", colors[i])
		}
	}
	if im.FrameRate.Eval(25) <= im.FrameRate.Eval(1) {
		t.Error("frame-rate importance not increasing")
	}
	if im.AudioGrade[qos.CDQuality] <= im.AudioGrade[qos.TelephoneQuality] {
		t.Error("audio importance not increasing")
	}
}

func TestCostImportance(t *testing.T) {
	im := Importance{CostPerDollar: 4}
	if got := im.Cost(cost.DollarsFloat(2.5)); got != 10 {
		t.Errorf("Cost(2.5$) = %g, want 10", got)
	}
	if got := im.Cost(0); got != 0 {
		t.Errorf("Cost(0) = %g", got)
	}
}

// TestImportanceClone: a copy of an importance profile is a clone; it
// shares no weight or anchor with the original.
func TestImportanceClone(t *testing.T) {
	im := DefaultImportance()
	c := im
	c.VideoColor[qos.Color] = 99
	c.FrameRate.Anchors[0].Y = 99
	c.Language[0].Weight = 99
	if im.VideoColor[qos.Color] == 99 {
		t.Error("a copy shares the color weights")
	}
	if im.FrameRate.Anchors[0].Y == 99 {
		t.Error("a copy shares the frame-rate curve")
	}
	if im.Language[0].Weight == 99 {
		t.Error("a copy shares the language weights")
	}
	if im != DefaultImportance() {
		t.Error("two default importance profiles are not ==")
	}
}

// Property: Overall is monotone decreasing in cost for fixed settings and
// positive cost importance.
func TestOverallMonotoneInCost(t *testing.T) {
	im := DefaultImportance()
	s := []qos.Setting{qos.VideoSetting(qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: 480})}
	f := func(a, b uint16) bool {
		x, y := cost.Money(a), cost.Money(b)
		if x > y {
			x, y = y, x
		}
		return im.Overall(s, x) >= im.Overall(s, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: curve evaluation stays within the anchor range's min/max for
// any query point.
func TestCurveBoundedProperty(t *testing.T) {
	c := NewCurve(Point{X: 1, Y: 1}, Point{X: 25, Y: 9}, Point{X: 60, Y: 10})
	f := func(x int16) bool {
		y := c.Eval(int(x))
		return y >= 1 && y <= 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
