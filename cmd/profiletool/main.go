// Command profiletool reproduces the QoS GUI of the paper's Section 8
// (Figures 3–7) as deterministic text windows, and can drive the complete
// window flow — main window → negotiation → information window →
// confirmation — against an in-process news-on-demand system.
//
// Usage:
//
//	profiletool -render all         # print every window (Figures 3–7)
//	profiletool -render main        # one window: main|components|video|audio|cost|info
//	profiletool -flow               # run the full negotiation flow and print the transcript
//	profiletool -flow -profile economy
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"qosneg"
	"qosneg/internal/client"
	"qosneg/internal/cost"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

func main() {
	render := flag.String("render", "", "window(s) to render: main|components|video|audio|cost|time|importance|info|all")
	flow := flag.Bool("flow", false, "drive the full window flow against an in-process system")
	profileName := flag.String("profile", "tv-quality", "profile to use for -flow")
	flag.Parse()

	store := profile.NewStore()
	for _, p := range profile.DefaultProfiles() {
		if err := store.Save(p); err != nil {
			log.Fatalf("profiletool: %v", err)
		}
	}

	switch {
	case *render != "":
		renderWindows(store, *render)
	case *flow:
		runFlow(store, *profileName)
	default:
		fmt.Fprintln(os.Stderr, "usage: profiletool -render all | -flow [-profile name]")
		os.Exit(2)
	}
}

func renderWindows(store *profile.Store, which string) {
	u, err := store.Get("tv-quality")
	if err != nil {
		log.Fatalf("profiletool: %v", err)
	}
	offerVideo := &qos.VideoQoS{Color: qos.Grey, FrameRate: 20, Resolution: qos.TVResolution}
	windows := map[string]func() string{
		"main": func() string { return RenderMain(store, "tv-quality") },
		"components": func() string {
			return RenderComponents(u, map[string]bool{"video": true})
		},
		"video":      func() string { return RenderVideoProfile(u, offerVideo) },
		"audio":      func() string { return RenderAudioProfile(u, nil) },
		"cost":       func() string { return RenderCostProfile(u, cost.DollarsFloat(4.5)) },
		"time":       func() string { return RenderTimeProfile(u) },
		"importance": func() string { return RenderImportanceProfile(u) },
		"info": func() string {
			offer := profile.MMProfile{
				Video: offerVideo,
				Audio: u.Desired.Audio,
				Cost:  profile.CostProfile{MaxCost: cost.DollarsFloat(4.5)},
			}
			return RenderInformation(InfoResult{
				Status: "FAILEDWITHOFFER", Offer: &offer,
				Cost: cost.DollarsFloat(4.5), ChoicePeriod: "30s",
			})
		},
	}
	order := []string{"main", "components", "video", "audio", "cost", "time", "importance", "info"}
	if which == "all" {
		for _, name := range order {
			fmt.Println(windows[name]())
		}
		return
	}
	w, ok := windows[which]
	if !ok {
		log.Fatalf("profiletool: unknown window %q", which)
	}
	fmt.Println(w())
}

func runFlow(store *profile.Store, profileName string) {
	sys, err := qosneg.New(qosneg.WithClients(1), qosneg.WithServers(2))
	if err != nil {
		log.Fatalf("profiletool: %v", err)
	}
	doc, err := sys.AddNewsArticle("news-1", "Election night", 2*time.Minute)
	if err != nil {
		log.Fatalf("profiletool: %v", err)
	}

	negotiate := func(u profile.UserProfile) (Outcome, error) {
		res, err := sys.NegotiateWith(context.Background(), mustClient(sys), doc.ID, u)
		if err != nil {
			return Outcome{}, err
		}
		out := Outcome{
			Status: res.Status.String(),
			Offer:  res.Offer,
			Reason: res.Reason,
		}
		for _, v := range res.Violations {
			out.Violations = append(out.Violations, v.String())
		}
		if res.Session != nil {
			id := res.Session.ID
			out.Cost = res.Session.Cost()
			out.ChoicePeriod = res.Session.ChoicePeriod
			out.Confirm = func() error { return sys.Manager.Confirm(id) }
			out.Reject = func() error { return sys.Manager.Reject(id) }
		}
		return out, nil
	}

	f := NewFlow(store, negotiate)
	if err := f.Select(profileName); err != nil {
		log.Fatalf("profiletool: %v", err)
	}
	if err := f.OK(); err != nil {
		log.Fatalf("profiletool: negotiation: %v", err)
	}
	if err := f.Accept(); err != nil {
		log.Fatalf("profiletool: accept: %v", err)
	}
	for _, window := range f.Transcript {
		fmt.Println(window)
	}
	fmt.Printf("flow finished in state %q\n", f.State())
}

func mustClient(sys *qosneg.System) client.Machine {
	m, err := sys.Client("client-1")
	if err != nil {
		log.Fatalf("profiletool: %v", err)
	}
	return m
}
