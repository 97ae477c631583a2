package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/testbed"
)

// This file regenerates E6: one concrete scenario per negotiation status of
// Section 4.

func init() {
	register(Experiment{
		ID:    "E6",
		Title: "One scenario per negotiation status",
		Paper: "Section 4",
		Run:   runE6,
	})
}

// tvRequest is the standard request used by the status scenarios.
func tvRequest() profile.UserProfile {
	return profile.UserProfile{
		Name: "tv",
		Desired: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.Color, FrameRate: 25, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.CDQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Worst: profile.MMProfile{
			Video: &qos.VideoQoS{Color: qos.BlackWhite, FrameRate: 10, Resolution: qos.TVResolution},
			Audio: &qos.AudioQoS{Grade: qos.TelephoneQuality},
			Cost:  profile.CostProfile{MaxCost: cost.Dollars(12)},
		},
		Importance: profile.DefaultImportance(),
	}
}

func runE6(w io.Writer) error {
	report := func(name, setup string, res core.Result) {
		fmt.Fprintf(w, "%-22s %s\n", res.Status, setup)
		if res.Offer != nil && res.Offer.Video != nil {
			fmt.Fprintf(w, "%22s offer: video %s", "", res.Offer.Video)
			if res.Session != nil {
				fmt.Fprintf(w, " at %s", res.Session.Cost())
			}
			fmt.Fprintln(w)
		}
		if res.Reason != "" {
			fmt.Fprintf(w, "%22s reason: %s\n", "", res.Reason)
		}
		_ = name
	}

	// SUCCEEDED: the plain prototype.
	{
		bed := testbed.MustNew(testbed.Spec{})
		if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
			return err
		}
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", tvRequest())
		if err != nil {
			return err
		}
		report("succeeded", "full-capability client, idle system", res)
	}

	// FAILEDWITHOFFER: desired quality exists nowhere; best feasible offer
	// is reserved anyway.
	{
		bed := testbed.MustNew(testbed.Spec{})
		if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
			return err
		}
		u := tvRequest()
		u.Desired.Video.Color = qos.SuperColor // no super-color variant exists
		u.Worst.Video.Color = qos.SuperColor
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", u)
		if err != nil {
			return err
		}
		report("failedwithoffer", "super-color demanded, best stored variant is color", res)
	}

	// FAILEDTRYLATER: servers with no admission capacity.
	{
		cfg := cmfs.Config{DiskRate: 64 * qos.KBitPerSecond, SeekTime: time.Millisecond,
			RoundLength: time.Second, MaxStreams: 1}
		bed := testbed.MustNew(testbed.Spec{ServerConfig: &cfg})
		if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
			return err
		}
		res, err := bed.Manager.NegotiateContext(context.Background(), bed.Client(1), "news-1", tvRequest())
		if err != nil {
			return err
		}
		report("failedtrylater", "servers too small to admit any stream", res)
	}

	// FAILEDWITHOUTOFFER: no decoder for the audio monomedia.
	{
		bed := testbed.MustNew(testbed.Spec{})
		if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
			return err
		}
		mach := bed.Client(1)
		mach.Decoders = []media.Format{media.MPEG1, media.GIF, media.PlainText}
		res, err := bed.Manager.NegotiateContext(context.Background(), mach, "news-1", tvRequest())
		if err != nil {
			return err
		}
		report("failedwithoutoffer", "client lacks any audio decoder", res)
	}

	// FAILEDWITHLOCALOFFER: the paper's color-on-black&white example.
	{
		bed := testbed.MustNew(testbed.Spec{})
		if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
			return err
		}
		mach := bed.Client(1)
		mach.Display.Color = qos.BlackWhite
		res, err := bed.Manager.NegotiateContext(context.Background(), mach, "news-1", tvRequest())
		if err != nil {
			return err
		}
		report("failedwithlocaloffer", "color video requested on a black&white screen", res)
		for _, v := range res.Violations {
			fmt.Fprintf(w, "%22s violation: %s\n", "", v)
		}
	}
	return nil
}
