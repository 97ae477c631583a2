package core

import (
	"context"
	"testing"
	"testing/quick"

	"qosneg/internal/cost"
	"qosneg/internal/offer"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// TestNegotiationContract checks the paper's definition of SUCCEEDED
// against randomized profiles: "the requested QoS and the maximum cost the
// user is willing to pay are satisfied by the system. A user offer (which
// does not violate the worst acceptable values contained in the user
// profile) is returned." Dually, FAILEDWITHOFFER must return an offer that
// does violate the request (in QoS or budget).
func TestNegotiationContract(t *testing.T) {
	b := defaultBed(t)
	colors := qos.ColorQualities()

	f := func(desColor, worColor, desRate, worRate uint8, budgetRaw uint16) bool {
		dc := colors[desColor%4]
		wc := colors[worColor%4]
		if wc > dc {
			dc, wc = wc, dc
		}
		dr := int(desRate%60) + 1
		wr := int(worRate%60) + 1
		if wr > dr {
			dr, wr = wr, dr
		}
		budget := cost.Money(budgetRaw) // 0 .. 65.535$
		u := profile.UserProfile{
			Name: "contract",
			Desired: profile.MMProfile{
				Video: &qos.VideoQoS{Color: dc, FrameRate: dr, Resolution: qos.TVResolution},
				Audio: &qos.AudioQoS{Grade: qos.CDQuality},
				Cost:  profile.CostProfile{MaxCost: budget},
			},
			Worst: profile.MMProfile{
				Video: &qos.VideoQoS{Color: wc, FrameRate: wr, Resolution: qos.TVResolution},
				Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
				Cost:  profile.CostProfile{MaxCost: budget},
			},
			Importance: profile.DefaultImportance(),
		}
		if err := u.Validate(); err != nil {
			return true // generator produced an invalid profile; skip
		}
		res, err := b.man.NegotiateContext(context.Background(), b.mach, "news-1", u)
		if err != nil {
			return false
		}
		defer func() {
			if res.Session != nil {
				b.man.Reject(res.Session.ID)
			}
		}()
		switch res.Status {
		case Succeeded:
			// The offer must not violate the worst-acceptable values and
			// must fit the budget.
			if res.Session.Current.Status == offer.Constraint {
				return false
			}
			if res.Session.Cost() > u.MaxCost() {
				return false
			}
			wor, _ := u.Worst.Setting(qos.Video)
			videoOffer := qos.VideoSetting(*res.Offer.Video)
			if !videoOffer.Satisfies(wor) {
				return false
			}
			return true
		case FailedWithOffer:
			// The reserved offer must genuinely fail the request: either
			// a QoS constraint or the budget.
			violates := res.Session.Current.Status == offer.Constraint ||
				res.Session.Cost() > u.MaxCost()
			return violates
		case FailedTryLater:
			return res.Session == nil
		default:
			// Local/compat failures cannot happen with this catalog and
			// machine.
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// The bed must end clean: every reservation rejected.
	if b.net.ActiveReservations() != 0 {
		t.Errorf("leaked %d reservations", b.net.ActiveReservations())
	}
}
