package protocol

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"qosneg/internal/client"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
)

// The binary/2 body codec (DESIGN.md §12). A frame body is one type-code byte
// (an index into messages) followed by the message's payload: a compact body
// for the payloads the hot RPCs carry (coder.typed), the payload's plain JSON
// object for every other type, nothing for payload-less messages.
//
// Compact bodies are canonical — a decoder rejects what the encoder would
// not have written. Every length is checked against the bytes remaining
// before anything is allocated from it, and every decoder copies what it
// keeps: the read buffer is reused the moment decodeBody returns.

// bodyType reads the message type off a frame body without decoding it —
// what lets the server shed a negotiation before parsing its profile. Empty
// bodies and unknown codes report "".
func bodyType(body []byte) MessageType {
	if len(body) == 0 || int(body[0]) >= len(messages) {
		return ""
	}
	return messages[body[0]].typ
}

// appendBody appends e's binary/2 frame body to dst.
func appendBody(dst []byte, e Envelope) ([]byte, error) {
	code, ok := codeOf[e.Type]
	if !ok {
		return dst, fmt.Errorf("protocol: message type %q has no binary type code", e.Type)
	}
	c := coder{enc: true, b: append(dst, code)}
	if e.Payload != nil && !c.typed(e.Payload) {
		data, err := json.Marshal(e.Payload)
		if err != nil {
			return dst, err
		}
		c.b = append(c.b, data...)
	}
	return c.b, nil
}

// decodeBody parses one binary/2 frame body. An unknown type code decodes
// to a payload-less envelope of a type no handler knows, so the dispatcher
// answers a typed MsgError instead of the connection dropping.
func decodeBody(body []byte) (Envelope, error) {
	if len(body) == 0 {
		return Envelope{}, fmt.Errorf("protocol: empty frame body")
	}
	t := bodyType(body)
	if t == "" {
		return Envelope{Type: MessageType(fmt.Sprintf("type code %d", body[0]))}, nil
	}
	c := coder{b: body[1:]}
	p := payloadFor(t)
	if p != nil && !c.typed(p) {
		if err := json.Unmarshal(c.b, p); err != nil {
			return Envelope{}, err
		}
		return Envelope{Type: t, Payload: p}, nil
	}
	if len(c.b) != 0 { // of a compact body, or of a payload-less message
		c.fail("trailing bytes")
	}
	if c.err != nil {
		return Envelope{}, c.err
	}
	return Envelope{Type: t, Payload: p}, nil
}

// coder walks a payload once for both directions, so each body's layout is
// written down in one place: with enc set it appends the fields it visits to
// b and writes nothing to the payload (results alias offers the manager
// shares between sessions); otherwise it consumes them from b into the zero
// payload. The first malformation met while decoding sticks in err and
// empties b, so callers walk the whole struct and check once. Field helpers
// are never passed as function values: the coder would escape to the heap.
type coder struct {
	enc bool
	b   []byte
	err error
}

// typed walks p if its type has a compact body and reports whether it has.
func (c *coder) typed(p any) bool {
	switch p := p.(type) {
	case *NegotiateRequest:
		if optional(c, &p.Machine) {
			c.machine(p.Machine)
		}
		text(c, &p.Document)
		if optional(c, &p.Profile) {
			c.userProfile(p.Profile)
		}
	case *RenegotiateRequest:
		if optional(c, &p.Profile) {
			c.userProfile(p.Profile)
		}
		integer(c, &p.Session)
	case *SessionRequest:
		integer(c, &p.Session)
	case *ResultPayload:
		c.resultPayload(p)
	case *OKPayload:
		integer(c, &p.Session)
	case *SessionInfoPayload:
		integer(c, &p.Session)
		integer(c, &p.Cost)
		text(c, &p.State)
		integer(c, &p.PositionMs)
		integer(c, &p.Transitions)
		c.boolean(&p.Final)
	case *ErrorPayload:
		text(c, &p.Error)
	case *BusyPayload:
		text(c, &p.Error)
		integer(c, &p.RetryAfterMs)
	default:
		return false
	}
	return true
}

func (c *coder) resultPayload(p *ResultPayload) {
	text(c, &p.Status)
	if optional(c, &p.Offer) {
		c.mmProfile(p.Offer)
	}
	integer(c, &p.Session)
	integer(c, &p.Cost)
	text(c, &p.Reason)
	integer(c, &p.ChoicePeriodMs)
	// omitempty in the JSON encoding: nil and empty are one value.
	if n := c.length(len(p.Violations), 0, 1); !c.enc && n > 0 {
		p.Violations = make([]string, n)
	}
	for i := range p.Violations {
		text(c, &p.Violations[i])
	}
	integer(c, &p.RetryAfterMs)
	c.boolean(&p.Shed)
}

func (c *coder) machine(m *client.Machine) {
	text(c, &m.ID)
	integer(c, &m.Display.WidthPx)
	integer(c, &m.Display.HeightPx)
	integer(c, &m.Display.Color)
	integer(c, &m.MaxFrameRate)
	integer(c, &m.Audio)
	if n := c.length(lenOrNil(m.Decoders), 1, 1); !c.enc && n >= 0 {
		m.Decoders = make([]media.Format, n)
	}
	for i := range m.Decoders {
		text(c, &m.Decoders[i])
	}
	text(c, &m.Node)
}

func (c *coder) userProfile(u *profile.UserProfile) {
	text(c, &u.Name)
	c.mmProfile(&u.Desired)
	c.mmProfile(&u.Worst)
	im := &u.Importance
	intMap(c, &im.VideoColor)
	c.curve(&im.FrameRate)
	c.curve(&im.Resolution)
	intMap(c, &im.AudioGrade)
	c.languageMap(&im.Language)
	intMap(c, &im.ImageColor)
	c.curve(&im.ImageResolution)
	c.float(&im.CostPerDollar)
}

func (c *coder) mmProfile(p *profile.MMProfile) {
	if optional(c, &p.Video) {
		integer(c, &p.Video.Color)
		integer(c, &p.Video.FrameRate)
		integer(c, &p.Video.Resolution)
	}
	if optional(c, &p.Audio) {
		integer(c, &p.Audio.Grade)
		text(c, &p.Audio.Language)
	}
	if optional(c, &p.Image) {
		integer(c, &p.Image.Color)
		integer(c, &p.Image.Resolution)
	}
	if optional(c, &p.Text) {
		text(c, &p.Text.Language)
	}
	integer(c, &p.Cost.MaxCost)
	integer(c, &p.Cost.Guarantee)
	integer(c, &p.Time.MaxStartDelay)
	integer(c, &p.Time.ChoicePeriod)
}

func (c *coder) curve(cv *profile.Curve) {
	if n := c.length(lenOrNil(cv.Points), 1, 9); !c.enc && n >= 0 {
		cv.Points = make([]profile.Point, n)
	}
	for i := range cv.Points {
		integer(c, &cv.Points[i].X)
		c.float(&cv.Points[i].Y)
	}
}

// sortedKeys returns m's keys in ascending order; the importance maps hold a
// handful of scale values, so they usually sort without outgrowing buf.
func sortedKeys[K cmp.Ordered](m map[K]float64, buf []K) []K {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// intMap codes an int-keyed importance map as count + entries in ascending
// key order. The maps are omitempty in the JSON encoding, so nil and empty
// are one value here too. Decoded keys that do not strictly ascend — duplicates
// included — are malformed.
func intMap[K ~int](c *coder, m *map[K]float64) {
	if c.enc {
		var buf [8]K
		keys := sortedKeys(*m, buf[:0])
		c.length(len(keys), 0, 9)
		for _, k := range keys {
			v := (*m)[k]
			integer(c, &k)
			c.float(&v)
		}
		return
	}
	n := c.length(0, 0, 9)
	if n > 0 {
		*m = make(map[K]float64, n)
	}
	var k, prev K
	for i := 0; i < n; i, prev = i+1, k {
		var v float64
		integer(c, &k)
		c.float(&v)
		if i > 0 && k <= prev {
			c.fail("map keys out of order")
			return
		}
		(*m)[k] = v
	}
}

// languageMap is intMap for the one string-keyed importance map.
func (c *coder) languageMap(m *map[qos.Language]float64) {
	if c.enc {
		var buf [8]qos.Language
		keys := sortedKeys(*m, buf[:0])
		c.length(len(keys), 0, 9)
		for _, k := range keys {
			v := (*m)[k]
			text(c, &k)
			c.float(&v)
		}
		return
	}
	n := c.length(0, 0, 9)
	if n > 0 {
		*m = make(map[qos.Language]float64, n)
	}
	var k, prev qos.Language
	for i := 0; i < n; i, prev = i+1, k {
		var v float64
		text(c, &k)
		c.float(&v)
		if i > 0 && k <= prev {
			c.fail("map keys out of order")
			return
		}
		(*m)[k] = v
	}
}

func (c *coder) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("protocol: malformed %s body: %s", CodecBinary, what)
	}
	c.b = nil
}

func (c *coder) readUvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 || (n > 1 && c.b[n-1] == 0) {
		c.fail("truncated or non-minimal varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// integer codes any integer field zig-zag, session ids included.
func integer[T ~int | ~int64 | ~uint64](c *coder, v *T) {
	if c.enc {
		c.b = binary.AppendVarint(c.b, int64(*v))
		return
	}
	u := c.readUvarint()
	x := int64(u>>1) ^ -int64(u&1)
	if *v = T(x); int64(*v) != x {
		c.fail("integer overflows int")
	}
}

func (c *coder) float(v *float64) {
	switch {
	case c.enc:
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
	case len(c.b) < 8:
		c.fail("truncated float")
	default:
		*v = math.Float64frombits(binary.LittleEndian.Uint64(c.b))
		c.b = c.b[8:]
	}
}

// boolean codes a flag as one byte, 0 or 1.
func (c *coder) boolean(v *bool) {
	switch {
	case c.enc && *v:
		c.b = append(c.b, 1)
	case c.enc:
		c.b = append(c.b, 0)
	case len(c.b) == 0 || c.b[0] > 1:
		c.fail("bad boolean")
	default:
		*v = c.b[0] == 1
		c.b = c.b[1:]
	}
}

// optional codes the presence byte of an optional section and reports
// whether the section is there; decoding allocates it.
func optional[T any](c *coder, section **T) bool {
	present := *section != nil
	if c.boolean(&present); present && !c.enc {
		*section = new(T)
	}
	return present
}

// length codes an element count n as n+off: off is 1 for the slices whose
// nil (-1, see lenOrNil) and empty forms the JSON encoding keeps apart, else 0.
// Decoding refuses a count the remaining bytes cannot hold at min bytes an
// element — before the caller allocates from it.
func (c *coder) length(n, off, min int) int {
	if c.enc {
		c.b = binary.AppendUvarint(c.b, uint64(n+off))
		return n
	}
	u := c.readUvarint()
	if u > uint64(len(c.b)/min+off) {
		c.fail("length exceeds the body")
		return -off
	}
	return int(u) - off
}

func lenOrNil[T any](s []T) int {
	if s == nil {
		return -1
	}
	return len(s)
}

// text codes a string. Decoding looks it up among the fixed vocabularies (a
// result's status, a session's state, a decoder's format) before it copies:
// those it returns without allocating.
func text[T ~string](c *coder, v *T) {
	n := c.length(len(*v), 0, 1)
	if c.enc {
		c.b = append(c.b, *v...)
		return
	}
	b := c.b[:n]
	c.b = c.b[n:]
	if s, ok := wellKnown[string(b)]; ok {
		*v = T(s)
		return
	}
	*v = T(b)
}

var wellKnown = func() map[string]string {
	m := make(map[string]string)
	for s := core.Succeeded; s <= core.FailedWithLocalOffer; s++ {
		m[s.String()] = s.String()
	}
	for s := core.Reserved; s <= core.Aborted; s++ {
		m[s.String()] = s.String()
	}
	for _, f := range media.Formats() {
		m[string(f)] = string(f)
	}
	return m
}()
