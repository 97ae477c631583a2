package profile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qosneg/internal/cost"
	"qosneg/internal/qos"
)

func tvProfile() UserProfile {
	for _, p := range DefaultProfiles() {
		if p.Name == "tv-quality" {
			return p
		}
	}
	panic("tv-quality profile missing")
}

func TestDefaultProfilesValid(t *testing.T) {
	ps := DefaultProfiles()
	if len(ps) != 3 {
		t.Fatalf("want 3 factory profiles, got %d", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("factory profile %s invalid: %v", p.Name, err)
		}
		if err := p.Importance.Validate(); err != nil {
			t.Errorf("factory profile %s importance invalid: %v", p.Name, err)
		}
	}
}

func TestUserProfileValidate(t *testing.T) {
	good := tvProfile()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}

	p := good.Clone()
	p.Name = ""
	if err := p.Validate(); err == nil {
		t.Error("empty name accepted")
	}

	p = good.Clone()
	p.Desired.Video.FrameRate = 0
	if err := p.Validate(); err == nil {
		t.Error("invalid desired QoS accepted")
	}

	p = good.Clone()
	p.Worst.Video = &qos.VideoQoS{Color: qos.SuperColor, FrameRate: 60, Resolution: 1920}
	if err := p.Validate(); err == nil {
		t.Error("worst above desired accepted")
	}

	p = good.Clone()
	p.Worst.Video = nil
	if err := p.Validate(); err == nil {
		t.Error("media present in only one MM profile accepted")
	}

	p = good.Clone()
	p.Worst.Cost.MaxCost = p.Desired.Cost.MaxCost - 1
	if err := p.Validate(); err == nil {
		t.Error("worst budget below desired budget accepted")
	}

	p = good.Clone()
	p.Desired.Cost.MaxCost = -1
	if err := p.Validate(); err == nil {
		t.Error("negative budget accepted")
	}

	p = good.Clone()
	p.Desired.Time.MaxStartDelay = -time.Second
	if err := p.Validate(); err == nil {
		t.Error("negative start delay accepted")
	}
}

func TestMMProfileSetting(t *testing.T) {
	p := tvProfile().Desired
	if s, ok := p.Setting(qos.Video); !ok || s.Video == nil {
		t.Error("video setting missing")
	}
	if s, ok := p.Setting(qos.Audio); !ok || s.Audio == nil {
		t.Error("audio setting missing")
	}
	if _, ok := p.Setting(qos.Text); ok {
		t.Error("tv profile has no text requirement")
	}
	if _, ok := p.Setting(qos.Image); ok {
		t.Error("tv profile has no image requirement")
	}
	// Graphics share the image section.
	pr := DefaultProfiles()[1] // premium has an image section
	if _, ok := pr.Desired.Setting(qos.Graphic); !ok {
		t.Error("graphic should resolve to the image section")
	}
}

func TestUserProfileClone(t *testing.T) {
	p := tvProfile()
	c := p.Clone()
	c.Desired.Video.FrameRate = 1
	c.Importance.VideoColor[qos.Color] = -1
	if p.Desired.Video.FrameRate == 1 {
		t.Error("clone shares desired video QoS")
	}
	if p.Importance.VideoColor[qos.Color] == -1 {
		t.Error("clone shares importance maps")
	}
}

func TestMaxCost(t *testing.T) {
	p := tvProfile()
	if p.MaxCost() != cost.Dollars(6) {
		t.Errorf("MaxCost = %v", p.MaxCost())
	}
}

func TestStoreCRUD(t *testing.T) {
	s := NewStore()
	if got := s.List(); len(got) != 0 {
		t.Fatalf("new store not empty: %v", got)
	}
	if _, err := s.Get("tv-quality"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty store: %v", err)
	}
	for _, p := range DefaultProfiles() {
		if err := s.Save(p); err != nil {
			t.Fatalf("Save(%s): %v", p.Name, err)
		}
	}
	want := []string{"economy", "premium", "tv-quality"}
	got := s.List()
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("List[%d] = %s, want %s", i, got[i], want[i])
		}
	}

	// First saved profile becomes the default.
	d, err := s.Default()
	if err != nil || d.Name != "tv-quality" {
		t.Errorf("Default = %s, %v", d.Name, err)
	}
	if err := s.SetDefault("economy"); err != nil {
		t.Fatal(err)
	}
	if d, _ = s.Default(); d.Name != "economy" {
		t.Errorf("Default after SetDefault = %s", d.Name)
	}
	if err := s.SetDefault("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("SetDefault(ghost): %v", err)
	}

	// Stored profiles are isolated from caller mutation.
	p, _ := s.Get("tv-quality")
	p.Desired.Video.FrameRate = 2
	p2, _ := s.Get("tv-quality")
	if p2.Desired.Video.FrameRate == 2 {
		t.Error("store leaked internal state")
	}

	if err := s.Delete("economy"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Default(); !errors.Is(err, ErrNotFound) {
		t.Error("deleting the default must clear it")
	}
	if err := s.Delete("economy"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore()
	p := tvProfile()
	p.Name = ""
	if err := s.Save(p); err == nil {
		t.Error("invalid profile saved")
	}
	p = tvProfile()
	p.Importance.FrameRate = NewCurve(Point{X: 5, Y: 1}, Point{X: 5, Y: 2})
	if err := s.Save(p); err == nil {
		t.Error("invalid importance saved")
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")

	s := NewStore()
	for _, p := range DefaultProfiles() {
		if err := s.Save(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetDefault("premium"); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore()
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if len(s2.List()) != 3 {
		t.Errorf("loaded %d profiles", len(s2.List()))
	}
	d, err := s2.Default()
	if err != nil || d.Name != "premium" {
		t.Errorf("loaded default = %s, %v", d.Name, err)
	}
	p, err := s2.Get("tv-quality")
	if err != nil {
		t.Fatal(err)
	}
	if p.Desired.Video == nil || p.Desired.Video.FrameRate != qos.TVRate {
		t.Errorf("round-tripped video profile: %+v", p.Desired.Video)
	}
	if p.Importance.CostPerDollar != 1 {
		t.Errorf("round-tripped cost importance: %g", p.Importance.CostPerDollar)
	}
	if p.Desired.Time.ChoicePeriod != 30*time.Second {
		t.Errorf("round-tripped choice period: %v", p.Desired.Time.ChoicePeriod)
	}
}

func TestStoreLoadErrors(t *testing.T) {
	s := NewStore()
	if err := s.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadFile(bad); err == nil {
		t.Error("corrupt file accepted")
	}
	// Default referring to a missing profile.
	orphan := filepath.Join(t.TempDir(), "orphan.json")
	if err := writeFile(orphan, `{"default":"ghost","profiles":[]}`); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadFile(orphan); err == nil {
		t.Error("dangling default accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
