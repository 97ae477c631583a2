package profile

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"qosneg/internal/cost"
	"qosneg/internal/qos"
)

// rankIrrelevant names every UserProfile field that classification (steps
// 3–4) does not read, so RankDigest leaves it out. Every other field is
// rank-relevant and must move the digest. A new field fails
// TestRankDigestFieldCoverage until it is either digested or listed here.
var rankIrrelevant = map[string]string{
	"Name":                       "names the profile in the profile list",
	"Desired.Cost.Guarantee":     "keys the offer-cache entry itself",
	"Desired.Time.MaxStartDelay": "a step-5 constraint",
	"Desired.Time.ChoicePeriod":  "the step-6 window",
	"Worst.Cost.MaxCost":         "read by step 5's acceptable-set test, not by classification",
	"Worst.Cost.Guarantee":       "never read by negotiation",
	"Worst.Time.MaxStartDelay":   "never read by negotiation",
	"Worst.Time.ChoicePeriod":    "never read by negotiation",
}

// fullProfile sets every field of a profile to a non-zero value, with
// sections freshly allocated on each call.
func fullProfile() UserProfile {
	mm := func(scale int) MMProfile {
		return MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25 - scale, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality, Language: qos.French},
			Image: &qos.ImageQoS{Color: qos.Grey, Resolution: 640},
			Text:  &qos.TextQoS{Language: qos.English},
			Cost:  CostProfile{MaxCost: cost.Dollars(int64(10 + scale)), Guarantee: cost.Guaranteed},
			Time:  TimeProfile{MaxStartDelay: time.Second, ChoicePeriod: time.Minute},
		}
	}
	return UserProfile{Name: "full", Desired: mm(0), Worst: mm(10), Importance: DefaultImportance()}
}

// mutation is one single-field change of a profile, found by walkFields.
type mutation struct {
	path string // the field's path, e.g. "Importance.VideoColor[3]"
	kind string // what the change does: "set", "nil", "add", "delete"
	do   func()
}

// walkFields calls f with every single-field mutation of the value v:
// each scalar leaf changed, each array element walked, and each optional
// section dropped. The order is deterministic, so a mutation is named by
// (path, kind).
func walkFields(v reflect.Value, path string, f func(mutation)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			walkFields(v.Field(i), name, f)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		walkFields(v.Elem(), path, f)
		f(mutation{path, "nil", func() { v.Set(reflect.Zero(v.Type())) }})
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	case reflect.Int, reflect.Int64:
		f(mutation{path, "set", func() { v.SetInt(v.Int() + 1) }})
	case reflect.Float64:
		f(mutation{path, "set", func() { v.SetFloat(v.Float() + 0.5) }})
	case reflect.String:
		f(mutation{path, "set", func() { v.SetString(v.String() + "x") }})
	default:
		panic(fmt.Sprintf("walkFields: %s has unhandled kind %s", path, v.Kind()))
	}
}

// TestRankDigestFieldCoverage changes every field of a profile alone, by
// reflection: a rank-relevant change must move RankDigest, and a change to
// a field listed in rankIrrelevant must not.
func TestRankDigestFieldCoverage(t *testing.T) {
	base := fullProfile()
	want := base.RankDigest()
	type name struct{ path, kind string }
	var all []name
	walkFields(reflect.ValueOf(&base).Elem(), "", func(m mutation) { all = append(all, name{m.path, m.kind}) })
	if len(all) < 40 {
		t.Fatalf("walked only %d mutations", len(all))
	}
	seen := map[string]bool{}
	for _, n := range all {
		u := fullProfile()
		walkFields(reflect.ValueOf(&u).Elem(), "", func(m mutation) {
			if m.path == n.path && m.kind == n.kind {
				m.do()
			}
		})
		if reflect.DeepEqual(u, base) {
			t.Fatalf("mutation %s (%s) changed nothing", n.path, n.kind)
		}
		field := n.path
		if i := strings.IndexByte(field, '['); i >= 0 {
			field = field[:i]
		}
		_, irrelevant := rankIrrelevant[field]
		seen[field] = true
		switch got := u.RankDigest(); {
		case irrelevant && got != want:
			t.Errorf("%s (%s): a field classification does not read moved the digest", n.path, n.kind)
		case !irrelevant && got == want:
			t.Errorf("%s (%s): a rank-relevant change left the digest as it was", n.path, n.kind)
		}
	}
	for field := range rankIrrelevant {
		if !seen[field] {
			t.Errorf("rankIrrelevant lists %s, which the profile no longer has", field)
		}
	}
}

// TestRankDigestEquality: profiles whose importance profiles are == digest
// equally however they were built — literally, or read back from the JSON
// form — and extra languages move the digest.
func TestRankDigestEquality(t *testing.T) {
	a, b := fullProfile(), fullProfile()
	data, err := json.Marshal(a.Importance)
	if err != nil {
		t.Fatal(err)
	}
	b.Importance = Importance{}
	if err := json.Unmarshal(data, &b.Importance); err != nil {
		t.Fatal(err)
	}
	if b.Importance != a.Importance {
		t.Fatalf("the JSON form reads back as %+v, want %+v", b.Importance, a.Importance)
	}
	if a.RankDigest() != b.RankDigest() {
		t.Fatal("two equal profiles digest differently")
	}
	extra := func() UserProfile {
		u := fullProfile()
		u.Importance.Language[2] = LanguageWeight{"german", 1}
		u.Importance.Language[3] = LanguageWeight{"italian", 2}
		return u
	}
	u, v := extra(), extra()
	if u.RankDigest() == a.RankDigest() {
		t.Error("extra languages left the digest unchanged")
	}
	if u.RankDigest() != v.RankDigest() {
		t.Error("the same extra languages digest differently")
	}
}
