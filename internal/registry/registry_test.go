package registry

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"qosneg/internal/media"
	"qosneg/internal/qos"
)

func testDoc(id media.DocumentID, title string, servers ...media.ServerID) media.Document {
	return media.BuildNewsArticle(media.NewsArticleSpec{
		ID:       id,
		Title:    title,
		Duration: time.Minute,
		Servers:  servers,
		VideoQualities: []qos.VideoQoS{
			{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			{Color: qos.Grey, FrameRate: 15, Resolution: qos.TVResolution},
		},
		AudioQualities: []qos.AudioQoS{{Grade: qos.CDQuality, Language: qos.English}},
		Languages:      []qos.Language{qos.English},
	})
}

func TestAddGetRemove(t *testing.T) {
	r := New()
	d := testDoc("news-1", "Election night", "s1")
	if err := r.Add(d); err != nil {
		t.Fatal(err)
	}
	got, err := r.Document("news-1")
	if err != nil || got.Title != "Election night" {
		t.Fatalf("Document: %v, %v", got.Title, err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if err := r.Remove("news-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Document("news-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("after remove: %v", err)
	}
	if err := r.Remove("news-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	r := New()
	if err := r.Add(media.Document{ID: "empty"}); err == nil {
		t.Error("invalid document accepted")
	}
	if r.Len() != 0 {
		t.Error("invalid document stored")
	}
}

func TestListSortedAndSearch(t *testing.T) {
	r := New()
	for _, d := range []media.Document{
		testDoc("b-doc", "Hockey final", "s1"),
		testDoc("a-doc", "Election Night Special", "s1"),
		testDoc("c-doc", "Weather update", "s1"),
	} {
		if err := r.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	ids := r.List()
	if len(ids) != 3 || ids[0] != "a-doc" || ids[2] != "c-doc" {
		t.Errorf("List = %v", ids)
	}
	if got := r.SearchTitle("election"); len(got) != 1 || got[0] != "a-doc" {
		t.Errorf("SearchTitle(election) = %v", got)
	}
	if got := r.SearchTitle(""); len(got) != 3 {
		t.Errorf("empty query should match all, got %v", got)
	}
	if got := r.SearchTitle("cricket"); len(got) != 0 {
		t.Errorf("SearchTitle(cricket) = %v", got)
	}
}

func TestVariantsLookup(t *testing.T) {
	r := New()
	if err := r.Add(testDoc("news-1", "T", "s1", "s2")); err != nil {
		t.Fatal(err)
	}
	vs, err := r.Variants("news-1", "video")
	if err != nil || len(vs) != 2 {
		t.Fatalf("Variants: %d, %v", len(vs), err)
	}
	if _, err := r.Variants("news-1", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown monomedia: %v", err)
	}
	if _, err := r.Variants("ghost", "video"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown document: %v", err)
	}
	// Returned slice is a copy.
	vs[0].Server = "tampered"
	vs2, _ := r.Variants("news-1", "video")
	if vs2[0].Server == "tampered" {
		t.Error("registry leaked internal variant slice")
	}
}

func TestServerIndex(t *testing.T) {
	r := New()
	if err := r.Add(testDoc("news-1", "T", "s1", "s2")); err != nil {
		t.Fatal(err)
	}
	servers := r.Servers()
	if len(servers) != 2 || servers[0] != "s1" || servers[1] != "s2" {
		t.Errorf("Servers = %v", servers)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	r := New()
	for i := 0; i < 5; i++ {
		id := media.DocumentID(fmt.Sprintf("doc-%d", i))
		if err := r.Add(testDoc(id, fmt.Sprintf("Article %d", i), "s1", "s2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2 := New()
	if err := r2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 5 {
		t.Errorf("loaded %d documents", r2.Len())
	}
	d, err := r2.Document("doc-3")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := d.Component("video")
	if !ok || v.Variants[0].Blocks.MaxBlockBytes == 0 {
		t.Error("block stats lost in persistence")
	}
}

func TestLoadFileErrors(t *testing.T) {
	r := New()
	if err := r.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				id := media.DocumentID(fmt.Sprintf("doc-%d-%d", i, j))
				if err := r.Add(testDoc(id, "T", "s1")); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Document(id); err != nil {
					t.Error(err)
					return
				}
				r.List()
				r.Servers()
			}
		}(i)
	}
	wg.Wait()
	if r.Len() != 8*50 {
		t.Errorf("Len = %d, want %d", r.Len(), 8*50)
	}
}
