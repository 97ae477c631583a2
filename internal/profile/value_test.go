package profile

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"qosneg/internal/qos"
)

// assertComparable fails to compile unless T supports ==: the importance
// profile is a value two profiles can be compared by.
func assertComparable[T comparable]() {}

var _ = assertComparable[Importance]

// mapImportance is the importance profile as maps and anchor slices, with
// Importance.QoS's arithmetic over them: the reference the flat value must
// match bit for bit.
type mapImportance struct {
	videoColor, imageColor          map[qos.ColorQuality]float64
	audioGrade                      map[qos.AudioGrade]float64
	language                        map[qos.Language]float64
	frameRate, resolution, imageRes []Point
}

func refEval(ps []Point, x int) float64 {
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
	i := sort.Search(n, func(i int) bool { return ps[i].X >= x })
	lo, hi := ps[i-1], ps[i]
	if hi.X == x {
		return hi.Y
	}
	frac := float64(x-lo.X) / float64(hi.X-lo.X)
	return lo.Y + frac*(hi.Y-lo.Y)
}

func (m *mapImportance) qos(s qos.Setting) float64 {
	switch {
	case s.Video != nil:
		return m.videoColor[s.Video.Color] + refEval(m.frameRate, s.Video.FrameRate) + refEval(m.resolution, s.Video.Resolution)
	case s.Audio != nil:
		return m.audioGrade[s.Audio.Grade] + m.language[s.Audio.Language]
	case s.Image != nil:
		return m.imageColor[s.Image.Color] + refEval(m.imageRes, s.Image.Resolution)
	case s.Text != nil:
		return m.language[s.Text.Language]
	}
	return 0
}

// randomImportance draws an importance profile: each weight zero a third
// of the time, curves of 0 to MaxAnchors sorted anchors, and a sorted
// subset of a language pool. It returns the map form alongside.
func randomImportance(r *rand.Rand) (Importance, mapImportance) {
	w := func() float64 {
		if r.Intn(3) == 0 {
			return 0
		}
		return float64(r.Intn(41)-10) / 4
	}
	var im Importance
	m := mapImportance{
		videoColor: map[qos.ColorQuality]float64{}, imageColor: map[qos.ColorQuality]float64{},
		audioGrade: map[qos.AudioGrade]float64{}, language: map[qos.Language]float64{},
	}
	for _, c := range qos.ColorQualities() {
		im.VideoColor[c], im.ImageColor[c] = w(), w()
		m.videoColor[c], m.imageColor[c] = im.VideoColor[c], im.ImageColor[c]
	}
	for _, g := range qos.AudioGrades() {
		im.AudioGrade[g] = w()
		m.audioGrade[g] = im.AudioGrade[g]
	}
	n := 0
	for _, l := range []qos.Language{qos.English, qos.French, "german", "italian"} {
		if x := w(); x != 0 {
			im.Language[n] = LanguageWeight{l, x}
			m.language[l] = x
			n++
		}
	}
	curve := func() (Curve, []Point) {
		var ps []Point
		x := r.Intn(10)
		for i := r.Intn(MaxAnchors + 1); i > 0; i-- {
			ps = append(ps, Point{X: x, Y: w()})
			x += 1 + r.Intn(700)
		}
		return NewCurve(ps...), ps
	}
	im.FrameRate, m.frameRate = curve()
	im.Resolution, m.resolution = curve()
	im.ImageResolution, m.imageRes = curve()
	im.CostPerDollar = w()
	return im, m
}

// randomSetting draws a monomedia setting with scale values just outside
// the scales now and then.
func randomSetting(r *rand.Rand) qos.Setting {
	color := qos.ColorQuality(r.Intn(6))
	langs := []qos.Language{"", qos.English, qos.French, "german", "italian", "dutch"}
	switch r.Intn(4) {
	case 0:
		return qos.VideoSetting(qos.VideoQoS{Color: color, FrameRate: r.Intn(70) - 5, Resolution: r.Intn(1500) - 20})
	case 1:
		return qos.AudioSetting(qos.AudioQoS{Grade: qos.AudioGrade(r.Intn(4)), Language: langs[r.Intn(len(langs))]})
	case 2:
		return qos.ImageSetting(qos.ImageQoS{Color: color, Resolution: r.Intn(1500) - 20})
	}
	return qos.TextSetting(qos.TextQoS{Language: langs[r.Intn(len(langs))]})
}

// TestQoSMatchesMapReference: Importance.QoS over the flat value is
// bit-identical to the same weights kept in maps and anchor slices, for
// any profile and setting — so every OIF stays what it was.
func TestQoSMatchesMapReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		im, m := randomImportance(r)
		if err := im.Validate(); err != nil {
			t.Fatalf("a drawn profile is invalid: %v", err)
		}
		for i := 0; i < 20; i++ {
			s := randomSetting(r)
			if got, want := im.QoS(s), m.qos(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("QoS(%v) = %v, the map form gives %v", s, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestImportanceJSONRoundTrip: the JSON form reads back to an == value,
// and a zero weight in it reads as an absent one.
func TestImportanceJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		im, _ := randomImportance(r)
		data, err := json.Marshal(im)
		if err != nil {
			t.Fatal(err)
		}
		var back Importance
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if back != im {
			t.Fatalf("%s reads back as %+v, want %+v", data, back, im)
		}
	}
	var z Importance
	if err := json.Unmarshal([]byte(`{"videoColor":{"2":0},"language":{"french":0,"english":3}}`), &z); err != nil {
		t.Fatal(err)
	}
	if want := (Importance{Language: LanguageWeights{{qos.English, 3}}}); z != want {
		t.Errorf("zero weights read as %+v, want %+v", z, want)
	}
}

// TestImportanceJSONRefusals: what the flat value cannot hold is an error,
// never dropped, and nothing is silently mended.
func TestImportanceJSONRefusals(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"videoColor":{"0":1}}`, "qos.ColorQuality 0 is outside its scale"},
		{`{"videoColor":{"5":1}}`, "qos.ColorQuality 5 is outside its scale"},
		{`{"imageColor":{"-1":1}}`, "qos.ColorQuality -1 is outside its scale"},
		{`{"audioGrade":{"3":1}}`, "qos.AudioGrade 3 is outside its scale"},
		{`{"language":{"a":1,"b":1,"c":1,"d":1,"e":1}}`, "more than 4 languages weighed"},
		{`{"imageResolution":{"points":[{"x":1},{"x":2},{"x":3},{"x":4},{"x":5}]}}`, "a curve of 5 anchors, at most 4"},
	} {
		var im Importance
		err := json.Unmarshal([]byte(tc.body), &im)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.body, err, tc.want)
		}
	}
	// Unsorted anchors read as they are written, for Validate to refuse.
	var im Importance
	if err := json.Unmarshal([]byte(`{"frameRate":{"points":[{"x":30,"y":1},{"x":1,"y":2}]}}`), &im); err != nil {
		t.Fatal(err)
	}
	if err := im.Validate(); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Errorf("unsorted anchors read as %+v, validated: %v", im.FrameRate, err)
	}
}

// TestImportanceValidate: every weight and anchor must be finite, a scale's
// index 0 weighs nothing, the language table is canonical, and each curve
// is sorted, unique and within capacity.
func TestImportanceValidate(t *testing.T) {
	if err := DefaultImportance().Validate(); err != nil {
		t.Fatalf("the default importance profile is invalid: %v", err)
	}
	nan := math.NaN()
	for name, mutate := range map[string]func(im *Importance){
		"NaN color weight":      func(im *Importance) { im.VideoColor[qos.Grey] = nan },
		"infinite audio":        func(im *Importance) { im.AudioGrade[qos.CDQuality] = math.Inf(1) },
		"weight at index 0":     func(im *Importance) { im.ImageColor[0] = 1 },
		"NaN language":          func(im *Importance) { im.Language[0].Weight = nan },
		"NaN cost":              func(im *Importance) { im.CostPerDollar = nan },
		"languages unsorted":    func(im *Importance) { im.Language[0], im.Language[1] = im.Language[1], im.Language[0] },
		"language twice":        func(im *Importance) { im.Language[1].Language = im.Language[0].Language },
		"zero weight listed":    func(im *Importance) { im.Language[1].Weight = 0 },
		"a gap in languages":    func(im *Importance) { im.Language[2], im.Language[1] = im.Language[1], LanguageWeight{} },
		"unsorted anchors":      func(im *Importance) { im.FrameRate.Anchors[0].X = 1000 },
		"NaN anchor":            func(im *Importance) { im.Resolution.Anchors[1].Y = nan },
		"anchors over":          func(im *Importance) { im.ImageResolution.N = MaxAnchors + 1 },
		"negative count":        func(im *Importance) { im.ImageResolution.N = -1 },
		"anchor past the count": func(im *Importance) { im.FrameRate.Anchors[3] = Point{X: 99} },
	} {
		im := DefaultImportance()
		mutate(&im)
		if err := im.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		u := fullProfile()
		u.Importance = im
		if err := u.Validate(); err == nil {
			t.Errorf("%s: UserProfile.Validate accepted it", name)
		}
	}
}
