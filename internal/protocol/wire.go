package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
)

// Codec names, as exchanged in the MsgHello handshake. The binary codec is
// length-prefixed frames with typed bodies (codec.go); the JSON codec is the
// legacy newline-delimited stream, one request at a time: the fallback for
// peers that predate this binary version, and the tests' oracle.
const (
	// CodecJSON is the legacy framing: one JSON value per line, requests
	// answered in order on a single logical stream.
	CodecJSON = "json"
	// CodecBinary is the multiplexed framing: 12-byte binary headers
	// (magic, version, flags, stream id, payload length) in front of a
	// type-code byte and the message body, with concurrent streams per
	// connection. A peer offering only "binary/1" is answered CodecJSON.
	CodecBinary = "binary/2"
)

// WireVersion is the binary framing version this build speaks; it is
// carried in every frame header and checked on receipt.
const WireVersion = 2

const (
	// frameBodyKeep is the largest body buffer a frameReader keeps between
	// frames: one oversized frame does not set a connection's footprint.
	frameBodyKeep = 4 << 10

	frameMagic0 = 'Q'
	frameMagic1 = 'N'
	// frameHeaderSize is magic(2) + version(1) + flags(1) + stream(4) +
	// length(4).
	frameHeaderSize = 12
)

// Frame flags.
const (
	// flagFIN marks the last frame of a stream (every unary response; the
	// final update of a watch stream).
	flagFIN byte = 1 << 0
	// flagCancel asks the peer to abandon the stream: no payload, and no
	// further frames are wanted. Unknown stream ids are ignored — the
	// stream may have finished while the cancel was in flight.
	flagCancel byte = 1 << 1
)

// MaxFramePayload bounds a single frame; larger length prefixes are a
// protocol error (ErrFrameTooLarge) and close the connection rather than
// committing the reader to an attacker-sized allocation.
const MaxFramePayload = 8 << 20

// DefaultMaxStreams is the per-connection cap on concurrently open streams
// when WireOptions.MaxStreams is zero.
const DefaultMaxStreams = 256

// Typed framing errors. Both ends answer a best-effort MsgError and close
// the connection when one of these is detected mid-stream.
var (
	// ErrBadFrameMagic: the 2-byte frame preamble was not "QN".
	ErrBadFrameMagic = errors.New("protocol: bad frame magic")
	// ErrBadFrameVersion: the frame's version byte is not WireVersion.
	ErrBadFrameVersion = errors.New("protocol: unsupported frame version")
	// ErrFrameTooLarge: the length prefix exceeds MaxFramePayload.
	ErrFrameTooLarge = errors.New("protocol: frame exceeds size limit")
	// ErrBadStreamID: a request frame used the reserved stream id 0 or
	// reused a stream id that is still open.
	ErrBadStreamID = errors.New("protocol: invalid stream id")
)

// WireOptions tunes a connection's codec negotiation and multiplexing. The
// zero value offers binary-then-JSON and the default stream cap.
type WireOptions struct {
	// Codecs is the preference-ordered codec list offered (client) or
	// accepted (server). Nil selects [CodecBinary, CodecJSON]. A client
	// configured as exactly [CodecJSON] skips the hello handshake entirely
	// and speaks the legacy protocol byte-for-byte.
	Codecs []string
	// MaxStreams caps concurrently open streams per multiplexed
	// connection; 0 selects DefaultMaxStreams.
	MaxStreams int
}

func (w WireOptions) codecs() []string {
	if len(w.Codecs) == 0 {
		return []string{CodecBinary, CodecJSON}
	}
	return w.Codecs
}

func (w WireOptions) maxStreams() int {
	if w.MaxStreams <= 0 {
		return DefaultMaxStreams
	}
	return w.MaxStreams
}

func (w WireOptions) supports(codec string) bool {
	for _, c := range w.codecs() {
		if c == codec {
			return true
		}
	}
	return false
}

// frame is one received unit of the binary codec. Payload (a body, codec.go)
// aliases the frameReader's buffer and is valid only until its next call.
type frame struct {
	Stream  uint32
	Flags   byte
	Payload []byte
}

// framePool recycles outgoing frames. A frame is built in one pooled buffer
// (header, then type code and body appended in place, the length patched
// last) and belongs to the frameWriter once sent, which puts it back after
// the write. The pool is sync.Pool's: the collector empties it, so the rare
// large frame does not pin its buffer.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// newFrame starts a pooled frame: a complete header announcing an empty
// payload, which is all a cancel frame is.
func newFrame(stream uint32, flags byte) *[]byte {
	buf := framePool.Get().(*[]byte)
	b := append((*buf)[:0], frameMagic0, frameMagic1, WireVersion, flags)
	b = binary.BigEndian.AppendUint32(b, stream)
	*buf = append(b, 0, 0, 0, 0)
	return buf
}

// frameReader reads one connection's frames into a body buffer it reuses
// from frame to frame — every decoder copies what it keeps.
type frameReader struct {
	r    *bufio.Reader
	body []byte
}

// next reads and validates one frame. Transport errors come back verbatim;
// malformed headers come back as the typed framing errors above.
func (fr *frameReader) next() (frame, error) {
	if cap(fr.body) > frameBodyKeep {
		fr.body = nil // let go before the wait for the next frame, not after
	}
	hdr, err := fr.r.Peek(frameHeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, err
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return frame{}, ErrBadFrameMagic
	}
	if hdr[2] != WireVersion {
		return frame{}, fmt.Errorf("%w: %d", ErrBadFrameVersion, hdr[2])
	}
	f := frame{Flags: hdr[3], Stream: binary.BigEndian.Uint32(hdr[4:8])}
	n := int(binary.BigEndian.Uint32(hdr[8:12]))
	if n > MaxFramePayload {
		return frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	fr.r.Discard(frameHeaderSize) // cannot fail: Peek buffered these bytes
	if n > 0 {
		if cap(fr.body) < n {
			fr.body = make([]byte, n)
		}
		f.Payload = fr.body[:n]
		if _, err := io.ReadFull(fr.r, f.Payload); err != nil {
			return frame{}, err
		}
	}
	return f, nil
}

// frameWriter serializes frame writes from concurrent streams onto one
// connection through a dedicated goroutine, flushing the buffered writer
// only when the queue drains — so bursts of small responses share syscalls.
type frameWriter struct {
	ch   chan *[]byte
	quit chan struct{}
	done chan struct{}
	once sync.Once

	mu  sync.Mutex
	err error
}

// newFrameWriter starts the writer goroutine over w. fail, if non-nil, is
// invoked once with the first write error (typically to close the
// connection so the read side unblocks).
func newFrameWriter(w io.Writer, fail func(error)) *frameWriter {
	fw := &frameWriter{
		// Deep enough that a burst of streams queues behind one flush.
		ch:   make(chan *[]byte, 128),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go fw.loop(w, fail)
	return fw
}

func (fw *frameWriter) loop(w io.Writer, fail func(error)) {
	defer close(fw.done)
	bw := bufio.NewWriterSize(w, 32<<10)
	var failed bool
	check := func(err error) {
		if err == nil || failed {
			return
		}
		failed = true
		fw.mu.Lock()
		fw.err = err
		fw.mu.Unlock()
		if fail != nil {
			fail(err)
		}
	}
	// After a failure frames are only drained, so senders never block on a
	// dead connection.
	write := func(buf *[]byte) {
		if !failed {
			_, err := bw.Write(*buf)
			check(err)
		}
		framePool.Put(buf)
	}
	for {
		select {
		case buf := <-fw.ch:
			write(buf)
			if !failed && len(fw.ch) == 0 {
				// Give runnable producers one scheduler slot to extend the
				// burst before paying the flush syscall: under concurrent
				// load many small frames then share one write.
				runtime.Gosched()
				if len(fw.ch) == 0 {
					check(bw.Flush())
				}
			}
		case <-fw.quit:
			// Drain frames already queued so responses written just
			// before shutdown still reach the peer.
			for {
				select {
				case buf := <-fw.ch:
					write(buf)
				default:
					if !failed {
						check(bw.Flush())
					}
					return
				}
			}
		}
	}
}

// send enqueues a frame, which the caller no longer owns; it returns the
// writer's terminal error after the writer has stopped or failed.
func (fw *frameWriter) send(buf *[]byte) error {
	fw.mu.Lock()
	err := fw.err
	fw.mu.Unlock()
	if err == nil {
		select {
		case fw.ch <- buf:
			return nil
		case <-fw.quit:
			err = ErrClientClosed
		}
	}
	framePool.Put(buf)
	return err
}

// sendEnvelope encodes e as one pooled frame and enqueues it.
func (fw *frameWriter) sendEnvelope(stream uint32, flags byte, e Envelope) error {
	buf := newFrame(stream, flags)
	b, err := appendBody(*buf, e)
	*buf = b
	if err != nil {
		framePool.Put(buf)
		return err
	}
	binary.BigEndian.PutUint32(b[8:frameHeaderSize], uint32(len(b)-frameHeaderSize))
	return fw.send(buf)
}

// stop flushes pending frames and stops the writer goroutine; safe to call
// more than once.
func (fw *frameWriter) stop() {
	fw.once.Do(func() { close(fw.quit) })
	<-fw.done
}
