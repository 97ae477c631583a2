package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/testbed"
)

// copyingUserOffer is the user offer with each section boxed into a copy of
// the chosen variant's QoS: the reference for offer.SystemOffer.UserOffer,
// whose sections point at the variants' own.
func copyingUserOffer(o offer.SystemOffer) profile.MMProfile {
	var p profile.MMProfile
	for _, c := range o.Choices {
		q := c.Variant.QoS
		switch {
		case q.Video != nil && p.Video == nil:
			v := *q.Video
			p.Video = &v
		case q.Audio != nil && p.Audio == nil:
			a := *q.Audio
			p.Audio = &a
		case q.Image != nil && p.Image == nil:
			i := *q.Image
			p.Image = &i
		case q.Text != nil && p.Text == nil:
			t := *q.Text
			p.Text = &t
		}
	}
	p.Cost = profile.CostProfile{MaxCost: o.Total()}
	return p
}

// TestUserOfferMatchesCopy holds the user offer to the copying reference on
// E1–E7's requests: every offer the worked examples classify, and
// Result.Offer of E6's reserved negotiations and of E7's, before and after
// its adaptation. Each section must also be the chosen variant's own QoS.
func TestUserOfferMatchesCopy(t *testing.T) {
	check := func(what string, o offer.SystemOffer, got profile.MMProfile) {
		t.Helper()
		if want := copyingUserOffer(o); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: user offer %+v, the copying reference %+v", what, got, want)
		}
		owned := func(section string, set bool, same func(qos.Setting) bool) {
			t.Helper()
			for _, c := range o.Choices {
				if same(c.Variant.QoS) {
					return
				}
			}
			if set {
				t.Errorf("%s: the %s section is not a chosen variant's own QoS", what, section)
			}
		}
		owned("video", got.Video != nil, func(q qos.Setting) bool { return q.Video == got.Video })
		owned("audio", got.Audio != nil, func(q qos.Setting) bool { return q.Audio == got.Audio })
		owned("image", got.Image != nil, func(q qos.Setting) bool { return q.Image == got.Image })
		owned("text", got.Text != nil, func(q qos.Setting) bool { return q.Text == got.Text })
	}
	for _, o := range sectionFiveOffers() {
		check("E2/E3 "+o.Key(), o, o.UserOffer())
	}

	newBed := func() *testbed.Bed {
		t.Helper()
		bed := testbed.MustNew(testbed.Spec{})
		if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
			t.Fatal(err)
		}
		return bed
	}
	superColor := tvRequest()
	superColor.Desired.Video.Color = qos.SuperColor
	superColor.Worst.Video.Color = qos.SuperColor
	for _, tc := range []struct {
		name string
		u    profile.UserProfile
	}{{"E6 succeeded", tvRequest()}, {"E6 failedwithoffer", superColor}} {
		bed := newBed()
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", tc.u)
		if err != nil || !res.Status.Reserved() || res.Offer == nil {
			t.Fatalf("%s: %v (%v)", tc.name, err, res.Status)
		}
		check(tc.name, *res.Session.CurrentOffer().SystemOffer, *res.Offer)
	}

	bed := newBed()
	res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", tvRequest())
	if err != nil || !res.Status.Reserved() {
		t.Fatalf("E7: %v (%v)", err, res.Status)
	}
	s := res.Session
	check("E7 negotiation", *s.CurrentOffer().SystemOffer, *res.Offer)
	if err := bed.Manager.Confirm(s.ID); err != nil {
		t.Fatal(err)
	}
	var video media.ServerID
	for _, c := range s.CurrentOffer().Choices {
		if c.Variant.QoS.Video != nil {
			video = c.Variant.Server
		}
	}
	if err := bed.Servers[video].SetDegradation(0.99); err != nil {
		t.Fatal(err)
	}
	if _, err := bed.Manager.AdaptContext(context.Background(), s.ID); err != nil {
		t.Fatalf("E7 adaptation: %v", err)
	}
	check("E7 adaptation", *s.CurrentOffer().SystemOffer, s.UserOffer())
}
