package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"qosneg/internal/core"
)

// appendFrame hand-rolls a frame around arbitrary body bytes, for tests that
// write what no encoder would.
func appendFrame(dst []byte, f frame) []byte {
	buf := newFrame(f.Stream, f.Flags)
	defer framePool.Put(buf)
	binary.BigEndian.PutUint32((*buf)[8:frameHeaderSize], uint32(len(f.Payload)))
	return append(append(dst, *buf...), f.Payload...)
}

// readFrame reads one frame with a buffer of its own, so the caller may keep
// the payload.
func readFrame(r *bufio.Reader) (frame, error) {
	fr := frameReader{r: r}
	return fr.next()
}

// TestEnvelopeByteCompatibility pins the JSON wire shape of the typed
// envelope to the exact bytes the pre-envelope protocol put on a line, so
// legacy peers keep interoperating. Field order inside each payload matters:
// it mirrors the declaration order of the old Request/Response structs.
func TestEnvelopeByteCompatibility(t *testing.T) {
	cases := []struct {
		name string
		env  Envelope
		want string
	}{
		{"confirm", Envelope{Type: MsgConfirm, Payload: &SessionRequest{Session: 42}},
			`{"type":"confirm","session":42}`},
		{"reject", Envelope{Type: MsgReject, Payload: &SessionRequest{Session: 7}},
			`{"type":"reject","session":7}`},
		{"stats", Envelope{Type: MsgStats},
			`{"type":"stats"}`},
		{"list-documents", Envelope{Type: MsgListDocuments, Payload: &ListDocumentsRequest{Query: "hockey"}},
			`{"type":"list-documents","query":"hockey"}`},
		{"list-documents-empty", Envelope{Type: MsgListDocuments, Payload: &ListDocumentsRequest{}},
			`{"type":"list-documents"}`},
		{"watch", Envelope{Type: MsgWatch, Payload: &WatchRequest{Session: 5, IntervalMs: 100}},
			`{"type":"watch","session":5,"intervalMs":100}`},
		{"ok", Envelope{Type: MsgOK, Payload: &OKPayload{Session: 42}},
			`{"type":"ok","session":42}`},
		{"error", Envelope{Type: MsgError, Payload: &ErrorPayload{Error: "boom"}},
			`{"type":"error","error":"boom"}`},
		{"session-info", Envelope{Type: MsgSessionInfo, Payload: &SessionInfoPayload{
			Session: 3, Cost: 1234, State: "playing", PositionMs: 500, Transitions: 2}},
			`{"type":"session-info","session":3,"cost":1234,"state":"playing","positionMs":500,"transitions":2}`},
		{"session-info-final", Envelope{Type: MsgSessionInfo, Payload: &SessionInfoPayload{
			Session: 3, Cost: 1, State: "completed", Final: true}},
			`{"type":"session-info","session":3,"cost":1,"state":"completed","final":true}`},
		{"result", Envelope{Type: MsgResult, Payload: &ResultPayload{
			Status: "SUCCEEDED", Session: 1, Cost: 250, ChoicePeriodMs: 60000}},
			`{"type":"result","status":"SUCCEEDED","session":1,"cost":250,"choicePeriodMs":60000}`},
		{"result-trylater", Envelope{Type: MsgResult, Payload: &ResultPayload{
			Status: "FAILEDTRYLATER", Reason: "full", RetryAfterMs: 1500}},
			`{"type":"result","status":"FAILEDTRYLATER","reason":"full","retryAfterMs":1500}`},
	}
	for _, tc := range cases {
		got, err := encodeEnvelope(tc.env)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		// And the decode path round-trips to the same bytes.
		dec, err := decodeEnvelope(got)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		re, err := encodeEnvelope(dec)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", tc.name, err)
		}
		if !bytes.Equal(re, got) {
			t.Errorf("%s: round trip drifted:\n got %s\nwant %s", tc.name, re, got)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	env := Envelope{Type: MsgOK, Payload: &OKPayload{Session: 300}}
	payload, _ := appendBody(nil, env)
	wire := appendFrame(nil, frame{Stream: 9, Flags: flagFIN, Payload: payload})
	if len(wire) != frameHeaderSize+len(payload) {
		t.Fatalf("frame length = %d", len(wire))
	}
	// What the frame writer puts on the wire is the same bytes.
	var sent bytes.Buffer
	fw := newFrameWriter(&sent, nil)
	err := fw.sendEnvelope(9, flagFIN, env)
	fw.stop()
	if err != nil || !bytes.Equal(sent.Bytes(), wire) {
		t.Fatalf("sendEnvelope wrote %x (%v), want %x", sent.Bytes(), err, wire)
	}
	f, err := readFrame(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Stream != 9 || f.Flags != flagFIN || !bytes.Equal(f.Payload, payload) {
		t.Errorf("frame = %+v", f)
	}
}

func TestFrameTypedErrors(t *testing.T) {
	valid := appendFrame(nil, frame{Stream: 1, Payload: []byte{9}})
	read := func(b []byte) (frame, error) { return readFrame(bufio.NewReader(bytes.NewReader(b))) }

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	if _, err := read(badMagic); !errors.Is(err, ErrBadFrameMagic) {
		t.Errorf("bad magic: %v", err)
	}

	badVersion := append([]byte(nil), valid...)
	// Version 1 (JSON lines in frames) is no longer spoken: there is one
	// binary codec, and older peers are steered to JSON by the handshake.
	for _, v := range []byte{1, 99} {
		badVersion[2] = v
		if _, err := read(badVersion); !errors.Is(err, ErrBadFrameVersion) {
			t.Errorf("version %d: %v", v, err)
		}
	}

	// An attacker-sized length prefix must fail the typed check before any
	// allocation is attempted.
	oversized := append([]byte(nil), valid[:frameHeaderSize]...)
	binary.BigEndian.PutUint32(oversized[8:12], MaxFramePayload+1)
	if _, err := read(oversized); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized: %v", err)
	}

	// Truncations surface as transport errors, never hangs or panics.
	for cut := 0; cut < len(valid); cut++ {
		_, err := read(valid[:cut])
		if err == nil {
			t.Fatalf("truncated frame at %d bytes accepted", cut)
		}
	}
}

// FuzzFrameDecode throws arbitrary bytes at the binary framer: every input
// must produce frames or a typed/transport error in bounded time — never a
// panic, a hang, or an oversized allocation.
func FuzzFrameDecode(f *testing.F) {
	stats, _ := appendBody(nil, Envelope{Type: MsgStats})
	f.Add(appendFrame(nil, frame{Stream: 1, Payload: stats}))
	// The PR 4 crasher analogue: a JSON-bodied frame whose body is a lone
	// "{" — a truncated JSON value that must not wedge the decoder.
	f.Add(appendFrame(nil, frame{Stream: 1, Payload: []byte{codeOf[MsgWatch], '{'}}))
	f.Add(appendFrame(nil, frame{Stream: 0, Flags: flagCancel}))
	f.Add([]byte{'Q', 'N', WireVersion})                            // truncated header
	f.Add([]byte{'X', 'X', WireVersion, 0, 0, 0, 0, 1, 0, 0, 0, 0}) // bad magic
	f.Add([]byte{'Q', 'N', 42, 0, 0, 0, 0, 1, 0, 0, 0, 0})          // bad version
	oversized := appendFrame(nil, frame{Stream: 1})
	binary.BigEndian.PutUint32(oversized[8:12], 0xFFFFFFFF)
	f.Add(oversized[:frameHeaderSize])
	two := appendFrame(nil, frame{Stream: 1, Payload: stats})
	f.Add(appendFrame(two, frame{Stream: 2, Flags: flagFIN, Payload: []byte{codeOf[MsgStatsInfo], '{', '}'}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := frameReader{r: bufio.NewReader(bytes.NewReader(data))}
		for i := 0; ; i++ {
			fr, err := frames.next()
			if err != nil {
				if !errors.Is(err, ErrBadFrameMagic) && !errors.Is(err, ErrBadFrameVersion) &&
					!errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, io.EOF) &&
					!errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("untyped framing error: %v", err)
				}
				return
			}
			if len(fr.Payload) > MaxFramePayload {
				t.Fatalf("frame %d exceeds the payload bound: %d", i, len(fr.Payload))
			}
			// Whatever decodes must re-encode without panicking.
			if env, derr := decodeBody(fr.Payload); derr == nil {
				appendBody(nil, env)
			}
		}
	})
}

// TestWireNegotiateAllocBound pins what the wire adds to a negotiation:
// the allocations of a Negotiate+Reject pair through client, frames and
// server in this one process, minus those of the same pair made on the
// manager directly. The bound is the measured 54 plus 15%; the JSON-in-frames
// codec this replaced measured 181. What is left is per-request server state
// (handler goroutine, stream context, choice timer), the reply slots, and
// the decoded profile's own maps, curves and strings.
func TestWireNegotiateAllocBound(t *testing.T) {
	if raceDetectorOn {
		t.Skip("sync.Pool sheds under -race, so pooled frames allocate")
	}
	h := newHarness(t)
	c, err := Dial(h.addr, WithWire(WireOptions{Codecs: []string{CodecBinary}}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mach, u := h.bed.Client(1), tvProfile(time.Minute)
	overWire := func() {
		res, err := c.Negotiate(bg, mach, "news-1", u)
		if err != nil || !res.Status.Reserved() {
			t.Fatalf("negotiate: %v %v", res.Status, err)
		}
		if err := c.Reject(bg, res.Session); err != nil {
			t.Fatal(err)
		}
	}
	inProcess := func() {
		res, err := h.bed.Manager.NegotiateContext(bg, mach, "news-1", u)
		if err != nil || res.Session == nil {
			t.Fatalf("negotiate: %v %v", res.Status, err)
		}
		if err := h.bed.Manager.Reject(res.Session.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the offer cache, the tombstone ring and the frame pool.
	for i := 0; i < 2*core.TombstoneRing; i++ {
		inProcess()
	}
	for i := 0; i < 64; i++ {
		overWire()
	}
	wire, direct := testing.AllocsPerRun(500, overWire), testing.AllocsPerRun(500, inProcess)
	const bound = 62
	if added := wire - direct; added > bound {
		t.Errorf("the wire adds %.0f allocations to a negotiate+reject (%.0f over the wire, %.0f in-process), bound %d", added, wire, direct, bound)
	} else {
		t.Logf("wire %.0f - in-process %.0f = %.0f allocations (bound %d)", wire, direct, added, bound)
	}
}

// TestFrameReaderBufferPolicy: consecutive frames share one body buffer, and
// a frame past frameBodyKeep gets its own, which the reader lets go of
// before it waits for the next frame — per-connection memory does not ratchet
// up with the largest frame ever seen.
func TestFrameReaderBufferPolicy(t *testing.T) {
	small, big := make([]byte, 100), make([]byte, 4*frameBodyKeep)
	var wire []byte
	for _, p := range [][]byte{small, small, big, small} {
		wire = appendFrame(wire, frame{Stream: 1, Payload: p})
	}
	fr := frameReader{r: bufio.NewReader(bytes.NewReader(wire))}
	first, _ := fr.next()
	second, _ := fr.next()
	if &first.Payload[0] != &second.Payload[0] {
		t.Error("two small frames did not share the body buffer")
	}
	if f, err := fr.next(); err != nil || len(f.Payload) != len(big) {
		t.Fatalf("big frame: %d bytes, %v", len(f.Payload), err)
	}
	if f, err := fr.next(); err != nil || len(f.Payload) != len(small) || cap(fr.body) > frameBodyKeep {
		t.Errorf("after an oversized frame the reader holds %d bytes (%v), want at most %d", cap(fr.body), err, frameBodyKeep)
	}
	if _, err := fr.next(); err != io.EOF {
		t.Errorf("end of input: %v", err)
	}
}
