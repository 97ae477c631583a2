package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"qosneg/internal/readme"
)

// TestReadmeSamplesParse parses every qosnegd sample of README.md with the
// daemon's own flag set: a sample naming a flag the daemon no longer has
// (or placing an argument where no flag expects one) fails here instead of
// exiting 2 in a reader's shell.
func TestReadmeSamplesParse(t *testing.T) {
	cmds := readme.Commands(t, "../../README.md", "go run ./cmd/qosnegd")
	if len(cmds) < 5 {
		t.Fatalf("found %d qosnegd samples in README.md, want at least 5", len(cmds))
	}
	for _, args := range cmds {
		fs := flag.NewFlagSet("qosnegd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Errorf("qosnegd %s: %v", strings.Join(args, " "), err)
		} else if fs.NArg() > 0 {
			t.Errorf("qosnegd %s: stray arguments %q", strings.Join(args, " "), fs.Args())
		}
	}
}
