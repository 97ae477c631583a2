package protocol

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/testbed"
)

// typedBodies lists every message whose payload has a hand-written binary
// body, one envelope per payload type and request/response code.
func typedBodies() []Envelope {
	return []Envelope{
		{Type: MsgNegotiate, Payload: &NegotiateRequest{}},
		{Type: MsgRenegotiate, Payload: &RenegotiateRequest{}},
		{Type: MsgConfirm, Payload: &SessionRequest{}},
		{Type: MsgReject, Payload: &SessionRequest{}},
		{Type: MsgSession, Payload: &SessionRequest{}},
		{Type: MsgInvoice, Payload: &SessionRequest{}},
		{Type: MsgResult, Payload: &ResultPayload{}},
		{Type: MsgOK, Payload: &OKPayload{}},
		{Type: MsgSessionInfo, Payload: &SessionInfoPayload{}},
		{Type: MsgError, Payload: &ErrorPayload{}},
		{Type: MsgBusy, Payload: &BusyPayload{}},
	}
}

// binaryRoundTrip encodes e as a binary/2 body and decodes it back.
func binaryRoundTrip(t testing.TB, e Envelope) Envelope {
	t.Helper()
	body, err := appendBody(nil, e)
	if err != nil {
		t.Fatalf("%s: encode: %v", e.Type, err)
	}
	out, err := decodeBody(body)
	if err != nil {
		t.Fatalf("%s: decode %x: %v", e.Type, body, err)
	}
	return out
}

// fill sets every exported field reachable from v to a distinct non-zero
// value: pointers are allocated, slices and maps get two elements.
func fill(t *testing.T, v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s has unexported field %s: the guard cannot fill it", v.Type(), v.Type().Field(i).Name)
			}
			fill(t, v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(t, v.Index(0), next)
		fill(t, v.Index(1), next)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, next)
			fill(t, e, next)
			v.SetMapIndex(k, e)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fill: no rule for %s (%s): teach the guard this kind", v.Type(), v.Kind())
	}
}

// TestBinaryBodyFieldDrift is the guard against a field added to a payload
// struct — or to UserProfile, Machine, MMProfile, Importance or anything
// else they reach — without a line in the binary codec: every exported field
// is filled with a distinct non-zero value and must survive the round trip.
func TestBinaryBodyFieldDrift(t *testing.T) {
	for _, e := range typedBodies() {
		next := 0
		fill(t, reflect.ValueOf(e.Payload).Elem(), &next)
		got := binaryRoundTrip(t, e)
		if got.Type != e.Type || !reflect.DeepEqual(got.Payload, e.Payload) {
			t.Errorf("%s: a field does not survive the binary codec:\n sent %s\n got  %s", e.Type, dump(e.Payload), dump(got.Payload))
		}
		// The JSON encoding is the oracle: it must agree on the same value.
		if viaJSON := jsonRoundTrip(t, e); !reflect.DeepEqual(viaJSON.Payload, got.Payload) {
			t.Errorf("%s: codecs disagree:\n json   %s\n binary %s", e.Type, dump(viaJSON.Payload), dump(got.Payload))
		}
	}
}

func jsonRoundTrip(t testing.TB, e Envelope) Envelope {
	t.Helper()
	line, err := encodeEnvelope(e)
	if err != nil {
		t.Fatalf("%s: json encode: %v", e.Type, err)
	}
	out, err := decodeEnvelope(line)
	if err != nil {
		t.Fatalf("%s: json decode %s: %v", e.Type, line, err)
	}
	return out
}

// dump renders a payload with its pointers followed, for failure messages.
func dump(p any) string {
	line, _ := encodeEnvelope(Envelope{Type: "dump", Payload: p})
	return string(line)
}

// gen draws the awkward values the codecs must agree on.
type gen struct{ *rand.Rand }

func (g gen) int() int {
	switch g.Intn(5) {
	case 0:
		return 0
	case 1:
		return -g.Intn(1 << 20)
	case 2:
		return math.MinInt64 + g.Intn(3)
	case 3:
		return math.MaxInt64 - g.Intn(3)
	}
	return g.Intn(4096)
}

func (g gen) float() float64 {
	switch g.Intn(4) {
	case 0:
		return 0
	case 1:
		return -g.Float64() * 1e6
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+g.Intn(9))
	}
	return g.NormFloat64()
}

func (g gen) str() string {
	words := []string{"", "tv", "français", "日本語のニュース", "a\"b\\c", "<&>", " line", "naïve café", strings.Repeat("x", 300)}
	return words[g.Intn(len(words))]
}

func (g gen) curve() profile.Curve {
	switch g.Intn(4) {
	case 0:
		return profile.Curve{}
	case 1:
		return profile.Curve{Points: []profile.Point{}}
	}
	pts := make([]profile.Point, 1+g.Intn(4))
	for i := range pts {
		pts[i] = profile.Point{X: g.int(), Y: g.float()}
	}
	return profile.Curve{Points: pts}
}

func genMap[K comparable](g gen, key func() K) map[K]float64 {
	switch g.Intn(4) {
	case 0:
		return nil
	case 1:
		return map[K]float64{}
	}
	m := make(map[K]float64)
	for i := g.Intn(12); i >= 0; i-- { // past the encoder's on-stack key buffer, sometimes
		m[key()] = g.float()
	}
	return m
}

func (g gen) mmProfile() profile.MMProfile {
	var p profile.MMProfile
	if g.Intn(2) == 0 {
		p.Video = &qos.VideoQoS{Color: qos.ColorQuality(g.int()), FrameRate: g.int(), Resolution: g.int()}
	}
	if g.Intn(2) == 0 {
		p.Audio = &qos.AudioQoS{Grade: qos.AudioGrade(g.int()), Language: qos.Language(g.str())}
	}
	if g.Intn(2) == 0 {
		p.Image = &qos.ImageQoS{Color: qos.ColorQuality(g.int()), Resolution: g.int()}
	}
	if g.Intn(2) == 0 {
		p.Text = &qos.TextQoS{Language: qos.Language(g.str())}
	}
	p.Cost = profile.CostProfile{MaxCost: cost.Money(g.int()), Guarantee: cost.Guarantee(g.int())}
	p.Time = profile.TimeProfile{MaxStartDelay: time.Duration(g.int()), ChoicePeriod: time.Duration(g.int())}
	return p
}

func (g gen) userProfile() *profile.UserProfile {
	if g.Intn(8) == 0 {
		return nil
	}
	color := func() qos.ColorQuality { return qos.ColorQuality(g.int()) }
	return &profile.UserProfile{
		Name:    g.str(),
		Desired: g.mmProfile(),
		Worst:   g.mmProfile(),
		Importance: profile.Importance{
			VideoColor:      genMap(g, color),
			FrameRate:       g.curve(),
			Resolution:      g.curve(),
			AudioGrade:      genMap(g, func() qos.AudioGrade { return qos.AudioGrade(g.int()) }),
			Language:        genMap(g, func() qos.Language { return qos.Language(g.str()) }),
			ImageColor:      genMap(g, color),
			ImageResolution: g.curve(),
			CostPerDollar:   g.float(),
		},
	}
}

func (g gen) machine() *client.Machine {
	if g.Intn(8) == 0 {
		return nil
	}
	m := &client.Machine{
		ID:           client.MachineID(g.str()),
		Display:      client.Display{WidthPx: g.int(), HeightPx: g.int(), Color: qos.ColorQuality(g.int())},
		MaxFrameRate: g.int(),
		Audio:        qos.AudioGrade(g.int()),
	}
	switch g.Intn(3) {
	case 1:
		m.Decoders = []media.Format{}
	case 2:
		m.Decoders = []media.Format{media.Format(g.str()), "mpeg1"}
	}
	return m
}

func (g gen) strs() []string {
	switch g.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	return []string{g.str(), g.str()}
}

// envelope draws one message with a typed binary body.
func (g gen) envelope() Envelope {
	id := core.SessionID(g.Uint64() >> uint(g.Intn(64)))
	switch g.Intn(8) {
	case 0:
		return Envelope{Type: MsgNegotiate, Payload: &NegotiateRequest{Machine: g.machine(), Document: media.DocumentID(g.str()), Profile: g.userProfile()}}
	case 1:
		return Envelope{Type: MsgRenegotiate, Payload: &RenegotiateRequest{Profile: g.userProfile(), Session: id}}
	case 2:
		return Envelope{Type: []MessageType{MsgConfirm, MsgReject, MsgSession, MsgInvoice}[g.Intn(4)], Payload: &SessionRequest{Session: id}}
	case 3:
		p := &ResultPayload{
			Status: []string{core.Succeeded.String(), core.FailedTryLater.String(), g.str()}[g.Intn(3)], Session: id,
			Cost: cost.Money(g.int()), Reason: g.str(), ChoicePeriodMs: int64(g.int()),
			Violations: g.strs(), RetryAfterMs: int64(g.int()), Shed: g.Intn(2) == 0,
		}
		if g.Intn(2) == 0 {
			offer := g.mmProfile()
			p.Offer = &offer
		}
		return Envelope{Type: MsgResult, Payload: p}
	case 4:
		return Envelope{Type: MsgOK, Payload: &OKPayload{Session: id}}
	case 5:
		return Envelope{Type: MsgSessionInfo, Payload: &SessionInfoPayload{
			Session: id, Cost: cost.Money(g.int()), State: []string{core.Playing.String(), g.str()}[g.Intn(2)],
			PositionMs: int64(g.int()), Transitions: g.int(), Final: g.Intn(2) == 0,
		}}
	case 6:
		return Envelope{Type: MsgError, Payload: &ErrorPayload{Error: g.str()}}
	}
	return Envelope{Type: MsgBusy, Payload: &BusyPayload{Error: g.str(), RetryAfterMs: int64(g.int())}}
}

// TestBinaryMatchesJSONCodec is the property the replacement rests on: for
// any payload — nil and empty maps, slices and curves, absent sections, zero
// and negative numbers, non-ASCII names — decoding what the binary codec
// wrote yields exactly what decoding its JSON encoding yields, and
// re-encoding the result reproduces the bytes.
func TestBinaryMatchesJSONCodec(t *testing.T) {
	property := func(seed int64) bool {
		e := gen{rand.New(rand.NewSource(seed))}.envelope()
		viaJSON, viaBinary := jsonRoundTrip(t, e), binaryRoundTrip(t, e)
		if viaJSON.Type != viaBinary.Type || !reflect.DeepEqual(viaJSON.Payload, viaBinary.Payload) {
			t.Errorf("seed %d: %s: codecs disagree:\n json   %s\n binary %s", seed, e.Type, dump(viaJSON.Payload), dump(viaBinary.Payload))
			return false
		}
		first, _ := appendBody(nil, e)
		again, _ := appendBody(nil, viaBinary)
		if !bytes.Equal(first, again) {
			t.Errorf("seed %d: %s: re-encoding drifted:\n %x\n %x", seed, e.Type, first, again)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBinaryJSONBodiedTypes: the messages without a typed body travel as the
// payload's own JSON behind the type code, and payload-less ones as the code
// alone.
func TestBinaryJSONBodiedTypes(t *testing.T) {
	for _, tc := range []struct {
		env  Envelope
		body string
	}{
		{Envelope{Type: MsgMetrics}, ""},
		{Envelope{Type: MsgListSessions}, ""},
		{Envelope{Type: MsgWatch, Payload: &WatchRequest{Session: 5, IntervalMs: 100}}, `{"session":5,"intervalMs":100}`},
		{Envelope{Type: MsgListDocuments, Payload: &ListDocumentsRequest{}}, `{}`},
		{Envelope{Type: MsgDocuments, Payload: &DocumentsPayload{Documents: []DocumentSummary{{ID: "d", Title: "T", Components: 3}}}},
			`{"documents":[{"id":"d","title":"T","components":3}]}`},
	} {
		body, err := appendBody(nil, tc.env)
		if err != nil {
			t.Fatalf("%s: %v", tc.env.Type, err)
		}
		if body[0] != codeOf[tc.env.Type] || string(body[1:]) != tc.body {
			t.Errorf("%s: body = %d %q, want %d %q", tc.env.Type, body[0], body[1:], codeOf[tc.env.Type], tc.body)
		}
		if got := binaryRoundTrip(t, tc.env); got.Type != tc.env.Type || !reflect.DeepEqual(got.Payload, tc.env.Payload) {
			t.Errorf("%s: round trip = %s", tc.env.Type, dump(got.Payload))
		}
	}
	// Every message type has exactly one code.
	if len(codeOf) != 21 {
		t.Errorf("%d type codes; a MessageType constant is missing from typeCodes", len(codeOf))
	}
	// A payload-less message with a body is malformed, as is a truncated or
	// empty frame.
	for _, bad := range [][]byte{{codeOf[MsgMetrics], '{', '}'}, {codeOf[MsgWatch]}, {}} {
		if env, err := decodeBody(bad); err == nil {
			t.Errorf("body %x decoded to %+v", bad, env)
		}
	}
	// An unknown code is not a decode error: it reaches the dispatcher as a
	// type nobody handles.
	env, err := decodeBody([]byte{200, 1, 2, 3})
	if err != nil || env.Payload != nil || env.Type != "type code 200" {
		t.Errorf("unknown code decoded to %+v, %v", env, err)
	}
	if bodyType([]byte{200}) != "" || bodyType(nil) != "" || bodyType([]byte{codeOf[MsgNegotiate], 0xff}) != MsgNegotiate {
		t.Error("bodyType misreads the type code")
	}
}

// TestBinaryDecodeDoesNotRetainInput: the read loop reuses its buffer the
// moment decodeBody returns, so a decoded payload must own every byte it
// refers to. A decoder that sub-sliced the input instead of copying it would
// see its strings change under the scribble.
func TestBinaryDecodeDoesNotRetainInput(t *testing.T) {
	envs := typedBodies()
	for _, e := range envs {
		next := 0
		fill(t, reflect.ValueOf(e.Payload).Elem(), &next)
	}
	envs = append(envs, Envelope{Type: MsgListDocuments, Payload: &ListDocumentsRequest{Query: "hockey"}})
	for _, e := range envs {
		body, err := appendBody(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBody(body)
		if err != nil {
			t.Fatal(err)
		}
		for i := range body {
			body[i] ^= 0xA5
		}
		if !reflect.DeepEqual(got.Payload, e.Payload) {
			t.Errorf("%s: decoded payload aliases the input buffer:\n sent %s\n now  %s", e.Type, dump(e.Payload), dump(got.Payload))
		}
	}
}

// FuzzBinaryBody throws arbitrary bytes at the body decoder. Nothing may
// panic. For the typed bodies, whose decoders allocate from lengths read off
// the wire, a body may not make the decoder allocate more than a small
// multiple of its own size (the JSON-bodied types are encoding/json's to
// bound), and a body that decodes is canonical:
// it re-encodes to the same bytes.
func FuzzBinaryBody(f *testing.F) {
	for _, e := range typedBodies() {
		body, _ := appendBody(nil, e)
		f.Add(body)
	}
	bed := testbed.MustNew(testbed.Spec{})
	u, m := tvProfile(time.Minute), bed.Client(1)
	for _, e := range []Envelope{
		{Type: MsgNegotiate, Payload: &NegotiateRequest{Machine: &m, Document: "news-1", Profile: &u}},
		{Type: MsgRenegotiate, Payload: &RenegotiateRequest{Profile: &u, Session: 77}},
		{Type: MsgResult, Payload: &ResultPayload{Status: "SUCCEEDED", Offer: &u.Desired, Session: 1, Cost: 250, ChoicePeriodMs: 60000}},
		{Type: MsgResult, Payload: &ResultPayload{Status: "FAILEDWITHLOCALOFFER", Violations: []string{"video color: too much"}}},
		{Type: MsgMetrics},
		{Type: MsgWatch, Payload: &WatchRequest{Session: 5}},
	} {
		body, _ := appendBody(nil, e)
		f.Add(body)
	}
	f.Add([]byte{codeOf[MsgNegotiate], 3, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a 4 GiB machine id
	f.Add([]byte{codeOf[MsgConfirm], 0x80, 0x00})                        // non-minimal varint
	f.Add([]byte{codeOf[MsgWatch], '{'})
	f.Add([]byte{0})
	f.Add([]byte{255, 1, 2})

	typed := make(map[MessageType]bool)
	for _, e := range typedBodies() {
		typed[e.Type] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if !typed[bodyType(body)] {
			if env, err := decodeBody(body); err == nil && codeOf[env.Type] != 0 {
				if _, err := appendBody(nil, env); err != nil {
					t.Fatalf("decoded %s does not re-encode: %v", env.Type, err)
				}
			}
			return
		}
		// The heap counter is the process's: the fuzzing engine's own
		// goroutines allocate too, now and then. Decoding is deterministic,
		// so the smallest of a few readings is the decoder's.
		var env Envelope
		var err error
		grew, limit := uint64(math.MaxUint64), uint64(64*len(body)+4096)
		for try := 0; try < 5 && grew > limit; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			env, err = decodeBody(body)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(body), grew, limit)
		}
		if err != nil {
			return
		}
		again, err := appendBody(nil, env)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("not canonical: %x decoded, re-encodes to %x (%v)", body, again, err)
		}
	})
}

// TestVersion1FrameIsRejected: a frame with the old version byte — header
// and JSON line exactly as binary/1 wrote them — answers the typed framing
// error on stream 0 and closes the connection.
func TestVersion1FrameIsRejected(t *testing.T) {
	h := newHarness(t)
	conn, r := binaryHandshake(t, h.addr)
	old := appendFrame(nil, frame{Stream: 1, Payload: []byte(`{"type":"stats"}`)})
	old[2] = 1
	if _, err := conn.Write(old); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(r)
	if err != nil {
		t.Fatalf("no error frame before close: %v", err)
	}
	env, err := decodeBody(f.Payload)
	if err != nil || env.Type != MsgError || f.Stream != 0 {
		t.Fatalf("frame = stream %d %+v %v, want a typed error on stream 0", f.Stream, env, err)
	}
	if p := env.Payload.(*ErrorPayload); !strings.Contains(p.Error, ErrBadFrameVersion.Error()) {
		t.Errorf("error = %q, want %q", p.Error, ErrBadFrameVersion)
	}
	if _, err := readFrame(r); err == nil {
		t.Error("connection stayed open after a framing error")
	}
}

// TestUnknownTypeCodeAnswersTypedError: a type code this build does not know
// — never assigned (31) or retired (6; 9 and 12, an old qosctl's stats and
// server-loads requests) — is answered with a MsgError on the request's
// stream, the connection left serving.
func TestUnknownTypeCodeAnswersTypedError(t *testing.T) {
	h := newHarness(t)
	conn, r := binaryHandshake(t, h.addr)
	metrics, _ := appendBody(nil, Envelope{Type: MsgMetrics})
	wire := appendFrame(nil, frame{Stream: 1, Payload: []byte{31, 'x'}})
	wire = appendFrame(wire, frame{Stream: 2, Payload: []byte{6, 'x'}})
	wire = appendFrame(wire, frame{Stream: 4, Payload: []byte{9}})
	wire = appendFrame(wire, frame{Stream: 5, Payload: []byte{12}})
	if _, err := conn.Write(appendFrame(wire, frame{Stream: 3, Payload: metrics})); err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]MessageType{}
	for len(seen) < 5 {
		f, err := readFrame(r)
		if err != nil {
			t.Fatalf("connection died: %v (saw %v)", err, seen)
		}
		env, err := decodeBody(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		seen[f.Stream] = env.Type
		if p, ok := env.Payload.(*ErrorPayload); ok && !strings.Contains(p.Error, "unknown request type") {
			t.Errorf("error = %q", p.Error)
		}
	}
	if seen[1] != MsgError || seen[2] != MsgError || seen[4] != MsgError || seen[5] != MsgError || seen[3] != MsgMetricsInfo {
		t.Errorf("answers = %v", seen)
	}
}
