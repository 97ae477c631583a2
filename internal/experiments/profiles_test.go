package experiments

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/profile"
	"qosneg/internal/protocol"
	"qosneg/internal/qos"
)

// factoryProfiles are the profiles the prototype ships and the experiments
// request with.
func factoryProfiles() []profile.UserProfile {
	return append(profile.DefaultProfiles(), tvRequest(), e8Profile(), e11Profile(), sectionFiveProfile())
}

// negotiateBody returns the binary/2 frame body a protocol client sends to
// negotiate news-1 for u, read off the connection by a peer that acks the
// client's hello, reads one frame and hangs up.
func negotiateBody(t *testing.T, u profile.UserProfile) []byte {
	t.Helper()
	near, far := net.Pipe()
	body := make(chan []byte, 1)
	go func() {
		defer far.Close()
		r := bufio.NewReader(far)
		var hdr [12]byte // magic, version, flags, stream, body length
		if _, err := r.ReadBytes('\n'); err != nil {
			body <- nil
			return
		}
		if _, err := far.Write([]byte(`{"type":"hello-ack","codec":"binary/2"}` + "\n")); err != nil {
			body <- nil
			return
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			body <- nil
			return
		}
		b := make([]byte, binary.BigEndian.Uint32(hdr[8:]))
		if _, err := io.ReadFull(r, b); err != nil {
			b = nil
		}
		body <- b
	}()
	c := protocol.NewClient(near)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	mach := client.Machine{ID: "pc-1", Display: client.Display{WidthPx: 1024, HeightPx: 768, Color: qos.SuperColor},
		MaxFrameRate: 30, Audio: qos.CDQuality, Node: "client-1"}
	c.Negotiate(ctx, mach, "news-1", u) // the peer hangs up instead of answering
	b := <-body
	if b == nil {
		t.Fatalf("%s: no negotiate frame read off the connection", u.Name)
	}
	return b
}

// TestFactoryProfileBytes pins the JSON form and the binary/2 negotiate
// body of every factory profile: the bytes profile files, qosctl and
// profiletool read and write, and the bytes a client sends, are those of
// the map-and-slice importance profile the flat value replaced. Rewrite
// testdata/profiles.golden with -update only for an intended format change.
func TestFactoryProfileBytes(t *testing.T) {
	var got strings.Builder
	for _, u := range factoryProfiles() {
		data, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s json %s\n", u.Name, data)
		fmt.Fprintf(&got, "%s binary %s\n", u.Name, hex.EncodeToString(negotiateBody(t, u)))
	}
	path := filepath.Join("testdata", "profiles.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
	// The JSON form reads back to the same profile.
	for _, u := range factoryProfiles() {
		data, _ := json.Marshal(u)
		var back profile.UserProfile
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		if back.Importance != u.Importance {
			t.Errorf("%s: the JSON form reads back as %+v", u.Name, back.Importance)
		}
	}
}
