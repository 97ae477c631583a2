// Package readme extracts the command samples README.md documents, so that
// a command's tests can check every sample still parses:
//
//	for _, args := range readme.Commands(t, "../../README.md", "go run ./cmd/qosctl") { … }
package readme

import (
	"os"
	"strings"
	"testing"
)

// Commands returns the argument lists of every sample in the file at path
// that starts with prefix, joining backslash-continued lines and dropping
// trailing comments, a trailing shell "&" and the Markdown around inline
// samples.
func Commands(tb testing.TB, path, prefix string) [][]string {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
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
		if end := strings.IndexAny(line, "`#&"); end >= 0 {
			line = line[:end]
		}
		cmds = append(cmds, strings.Fields(line))
	}
	return cmds
}
