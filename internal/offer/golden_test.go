package offer

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"qosneg/internal/client"
)

// TestRankedJSONGolden pins the wire encoding of a classified offer list
// byte-for-byte: Ranked carries its system offer by reference, which must
// not show in the JSON the protocol and the experiment outputs emit.
func TestRankedJSONGolden(t *testing.T) {
	ranked, err := filterTopK(context.Background(), newsDoc(), client.Workstation("c1", "n1"),
		pipelineProfile(), PipelineOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(ranked, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/ranked.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Errorf("Ranked JSON encoding changed:\n got %s\nwant %s", got, want)
	}
	// And it decodes back to the same offers.
	var back []Ranked
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	for i, r := range back {
		if r.Key() != ranked[i].Key() || r.Total() != ranked[i].Total() || r.Status != ranked[i].Status {
			t.Errorf("offer %d decoded as %s %s %s, want %s %s %s", i,
				r.Key(), r.Total(), r.Status, ranked[i].Key(), ranked[i].Total(), ranked[i].Status)
		}
	}
}
