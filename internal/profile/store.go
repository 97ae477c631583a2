package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"qosneg/internal/cost"
	"qosneg/internal/fsutil"
	"qosneg/internal/qos"
)

// ErrNotFound is returned when a named profile does not exist in the store.
var ErrNotFound = errors.New("profile not found")

// Store holds the user profiles managed by the profile manager: the main
// window of the QoS GUI (Figure 3) lets the user "select, edit or delete a
// user profile, or set a default user profile"; Store is the backing state
// for those operations. It is safe for concurrent use.
type Store struct {
	mu          sync.RWMutex
	profiles    map[string]UserProfile
	defaultName string
}

// NewStore returns an empty profile store.
func NewStore() *Store {
	return &Store{profiles: make(map[string]UserProfile)}
}

// Save stores the profile under its name, replacing any previous profile
// with that name (the GUI's Save / Save as buttons). The profile is
// validated first.
func (s *Store) Save(p UserProfile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profiles[p.Name] = p.Clone()
	if s.defaultName == "" {
		s.defaultName = p.Name
	}
	return nil
}

// Get returns a copy of the named profile.
func (s *Store) Get(name string) (UserProfile, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.profiles[name]
	if !ok {
		return UserProfile{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return p.Clone(), nil
}

// Delete removes the named profile. Deleting the default profile clears the
// default.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.profiles[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(s.profiles, name)
	if s.defaultName == name {
		s.defaultName = ""
	}
	return nil
}

// List returns the profile names in sorted order (the profile list of the
// main window).
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.profiles))
	for n := range s.profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetDefault marks the named profile as the default profile.
func (s *Store) SetDefault(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.profiles[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	s.defaultName = name
	return nil
}

// Default returns the default profile, or ErrNotFound when none is set.
func (s *Store) Default() (UserProfile, error) {
	s.mu.RLock()
	name := s.defaultName
	s.mu.RUnlock()
	if name == "" {
		return UserProfile{}, fmt.Errorf("%w: no default profile", ErrNotFound)
	}
	return s.Get(name)
}

// storeFile is the JSON persistence format.
type storeFile struct {
	Default  string        `json:"default,omitempty"`
	Profiles []UserProfile `json:"profiles"`
}

// SaveFile writes every profile to path as JSON.
func (s *Store) SaveFile(path string) error {
	s.mu.RLock()
	f := storeFile{Default: s.defaultName}
	for _, n := range s.listLocked() {
		f.Profiles = append(f.Profiles, s.profiles[n])
	}
	s.mu.RUnlock()
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(path, data, 0o644)
}

func (s *Store) listLocked() []string {
	names := make([]string, 0, len(s.profiles))
	for n := range s.profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LoadFile reads profiles from a JSON file written by SaveFile, replacing
// the store's contents.
func (s *Store) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f storeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("profile store %s: %w", path, err)
	}
	profiles := make(map[string]UserProfile, len(f.Profiles))
	for _, p := range f.Profiles {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("profile store %s: %w", path, err)
		}
		profiles[p.Name] = p
	}
	if f.Default != "" {
		if _, ok := profiles[f.Default]; !ok {
			return fmt.Errorf("profile store %s: default profile %q missing", path, f.Default)
		}
	}
	s.mu.Lock()
	s.profiles = profiles
	s.defaultName = f.Default
	s.mu.Unlock()
	return nil
}

// DefaultProfiles returns the factory profiles the prototype ships with:
// the "TV quality" profile used by the paper's examples, a premium profile
// and an economy profile. Each comes with the default importance values.
func DefaultProfiles() []UserProfile {
	tv := UserProfile{
		Name: "tv-quality",
		Desired: MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: qos.TVRate, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  CostProfile{MaxCost: cost.Dollars(6)},
			Time:  TimeProfile{MaxStartDelay: 10 * time.Second, ChoicePeriod: 30 * time.Second},
		},
		Worst: MMProfile{
			Video: &qos.VideoQoS{Color: qos.Grey, FrameRate: 15, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  CostProfile{MaxCost: cost.Dollars(6)},
			Time:  TimeProfile{MaxStartDelay: 10 * time.Second, ChoicePeriod: 30 * time.Second},
		},
		Importance: DefaultImportance(),
	}
	premium := UserProfile{
		Name: "premium",
		Desired: MMProfile{
			Video: &qos.VideoQoS{Color: qos.SuperColor, FrameRate: 30, Resolution: 720},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Image: &qos.ImageQoS{Color: qos.Color, Resolution: qos.TVResolution},
			Cost:  CostProfile{MaxCost: cost.Dollars(20), Guarantee: cost.Guaranteed},
			Time:  TimeProfile{MaxStartDelay: 5 * time.Second, ChoicePeriod: time.Minute},
		},
		Worst: MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: qos.TVRate, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Image: &qos.ImageQoS{Color: qos.Grey, Resolution: qos.TVResolution},
			Cost:  CostProfile{MaxCost: cost.Dollars(20), Guarantee: cost.Guaranteed},
			Time:  TimeProfile{MaxStartDelay: 5 * time.Second, ChoicePeriod: time.Minute},
		},
		Importance: DefaultImportance(),
	}
	premium.Importance.CostPerDollar = 0.2 // QoS matters more than cost

	economy := UserProfile{
		Name: "economy",
		Desired: MMProfile{
			Video: &qos.VideoQoS{Color: qos.Grey, FrameRate: 15, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  CostProfile{MaxCost: cost.Dollars(2)},
			Time:  TimeProfile{MaxStartDelay: time.Minute, ChoicePeriod: 30 * time.Second},
		},
		Worst: MMProfile{
			Video: &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 5, Resolution: qos.MinResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  CostProfile{MaxCost: cost.Dollars(2)},
			Time:  TimeProfile{MaxStartDelay: time.Minute, ChoicePeriod: 30 * time.Second},
		},
		Importance: DefaultImportance(),
	}
	economy.Importance.CostPerDollar = 4 // cost is the main constraint

	return []UserProfile{tv, premium, economy}
}
