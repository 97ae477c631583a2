package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"qosneg/internal/readme"
)

// TestReadmeSamplesParse runs every qosctl sample of README.md through run,
// pointed at a closed port: each must get past flag parsing to the dial —
// exit 1, no usage line — rather than exit 2 on flags placed after the
// command.
func TestReadmeSamplesParse(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := l.Addr().String()
	l.Close()

	cmds := readme.Commands(t, "../../README.md", "go run ./cmd/qosctl")
	if len(cmds) < 8 {
		t.Fatalf("found %d qosctl samples in README.md, want at least 8", len(cmds))
	}
	for _, args := range cmds {
		sample := strings.Join(args, " ")
		args = append([]string(nil), args...)
		for i := range args {
			if args[i] == "-addr" && i+1 < len(args) {
				args[i+1] = closed
			}
		}
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		out := stdout.String() + stderr.String()
		if code == 2 || strings.Contains(strings.ToLower(out), "usage") {
			t.Errorf("qosctl %s: exit %d\n%s", sample, code, out)
		}
	}
}
