package protocol

import (
	"bufio"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"qosneg/internal/testbed"
)

// FuzzServerInput throws an arbitrary first line at a live protocol server.
// A hello offering binary/2 is acked and the connection stays open; any
// other line gets exactly one reply line and then EOF — never a hang or a
// crash.
func FuzzServerInput(f *testing.F) {
	bed := testbed.MustNew(testbed.Spec{})
	bed.AddNewsArticle("news-1", "T", time.Minute)
	srv := NewServer(bed.Manager, bed.Registry)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go srv.Serve(l)
	f.Cleanup(func() {
		l.Close()
		srv.Close()
	})
	addr := l.Addr().String()

	f.Add(`{"type":"list-documents"}`)
	f.Add(`{"type":"negotiate"}`)
	f.Add(`{"type":"confirm","session":42}`)
	f.Add(`{"type":"dance"}`)
	f.Add(`not json at all`)
	f.Add(`{"type":"negotiate","machine":{"id":"x"},"document":"news-1","profile":{"name":"p"}}`)
	f.Add(`{"type":"watch","session":9999}`)
	f.Add(``)
	f.Add(`{"type":1234}`)
	f.Add(`{"type":"hello","codecs":["json"]}`)
	f.Add(`{"type":"hello","codecs":["binary/1","json"]}`)
	f.Add(`{"type":"hello","codecs":["binary/2"]}`)

	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsAny(line, "\n\r") {
			t.Skip("single-line inputs only")
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Skip("dial failed")
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			return
		}
		r := bufio.NewReader(conn)
		reply, err := r.ReadBytes('\n')
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("server hung on input %q", line)
		}
		if err != nil {
			t.Fatalf("no reply line to %q: %v", line, err)
		}
		env, err := readEnvelopeLine(reply)
		if err != nil {
			t.Fatalf("reply %q to %q: %v", reply, line, err)
		}
		sent, _ := readEnvelopeLine([]byte(line))
		if hello, ok := sent.Payload.(*HelloRequest); ok && slices.Contains(hello.Codecs, CodecBinary) {
			if env.Type != MsgHelloAck {
				t.Fatalf("hello %q answered %s", line, reply)
			}
			return
		}
		if env.Type != MsgError {
			t.Fatalf("%q answered %s, want a MsgError", line, reply)
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("after the reply to %q: %v, want EOF", line, err)
		}
	})
}
