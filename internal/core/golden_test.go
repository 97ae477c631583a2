package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
)

// TestSessionRankedJSONGolden pins the encoding of a session's committed
// offer and retained ranked list byte-for-byte against the encoding from
// before ranked offers aliased the shared product.
func TestSessionRankedJSONGolden(t *testing.T) {
	b := defaultBed(t)
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil || res.Session == nil {
		t.Fatalf("negotiate: %v %v", res.Status, err)
	}
	got, err := json.MarshalIndent(struct {
		Current any
		Ranked  any
	}{res.Session.CurrentOffer(), res.Session.Ranked}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/session_ranked.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Errorf("session ranked-list JSON encoding changed:\n got %s\nwant %s", got, want)
	}
}
