package main

import (
	"bytes"
	"net"
	"os"
	"strings"
	"testing"
)

// readmeCommands returns the argument lists of every `go run ./cmd/qosctl`
// sample in README.md, joining backslash-continued lines and dropping
// trailing comments and the Markdown around inline samples.
func readmeCommands(t *testing.T) [][]string {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "go run ./cmd/qosctl"
	lines := strings.Split(string(raw), "\n")
	var cmds [][]string
	for i := 0; i < len(lines); i++ {
		at := strings.Index(lines[i], prefix)
		if at < 0 {
			continue
		}
		line := lines[i][at+len(prefix):]
		for strings.HasSuffix(strings.TrimSpace(line), `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(strings.TrimSpace(line), `\`) + " " + lines[i]
		}
		if end := strings.IndexAny(line, "`#"); end >= 0 {
			line = line[:end]
		}
		cmds = append(cmds, strings.Fields(line))
	}
	return cmds
}

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

	cmds := readmeCommands(t)
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
