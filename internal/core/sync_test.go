package core

import (
	"context"
	"testing"
	"time"

	"qosneg/internal/media"
	"qosneg/internal/qos"
)

// TestCommitEnforcesSyncTolerance verifies the synchronization feasibility
// check: a lip-sync constraint tighter than the committed paths' combined
// jitter makes the configuration uncommittable.
func TestCommitEnforcesSyncTolerance(t *testing.T) {
	b := defaultBed(t)
	doc, err := b.reg.Document("news-1")
	if err != nil {
		t.Fatal(err)
	}
	// The star topology's paths contribute 2 ms jitter each (access +
	// backbone, 1 ms per link); two streams → 4 ms combined bound.
	doc.Temporal = []media.TemporalConstraint{
		{A: "video", B: "audio", Relation: media.Parallel, Tolerance: time.Millisecond},
	}
	if err := b.reg.Add(doc); err != nil {
		t.Fatal(err)
	}
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	// The tolerance is a hard constraint of the document: every offer
	// violates it, so the status is FAILEDWITHOUTOFFER (retrying cannot
	// shrink path jitter).
	if res.Status != FailedWithoutOffer {
		t.Fatalf("status = %v; sync tolerance not enforced", res.Status)
	}
	if b.net.ActiveReservations() != 0 {
		t.Error("sync rollback leaked reservations")
	}

	// A realistic 80 ms tolerance (lip-sync) commits fine.
	doc.Temporal[0].Tolerance = 80 * time.Millisecond
	if err := b.reg.Add(doc); err != nil {
		t.Fatal(err)
	}
	res, err = b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
}

// TestCommitIgnoresSyncForDiscreteMedia checks that constraints touching
// discrete media (zero-throughput, no connection jitter) do not block
// commitment.
func TestCommitIgnoresSyncForDiscreteMedia(t *testing.T) {
	b := defaultBed(t)
	doc, _ := b.reg.Document("news-1")
	doc.Monomedia = append(doc.Monomedia, media.Monomedia{
		ID: "caption", Kind: qos.Text,
		Variants: []media.Variant{media.TextVariant("t1", "server-1", qos.English, 256)},
	})
	doc.Temporal = []media.TemporalConstraint{
		{A: "video", B: "caption", Relation: media.Parallel, Tolerance: time.Nanosecond},
	}
	if err := b.reg.Add(doc); err != nil {
		t.Fatal(err)
	}
	res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", tvProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
}
