// Package testleak fails a test binary that leaves goroutines running
// inside the package under test. Call it from the package's TestMain:
//
//	func TestMain(m *testing.M) { testleak.Main(m, "qosneg/internal/core") }
package testleak

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and, if they pass, fails the binary when a goroutine
// other than the caller still has a frame of pkg (an import path) on its
// stack. Goroutines get a second to wind down.
func Main(m *testing.M, pkg string) {
	code := m.Run()
	if code == 0 {
		if leaked := leaked(pkg, time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutine(s) still inside %s:\n\n%s\n",
				len(leaked), pkg, strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leaked polls until no goroutine other than the caller has a frame of pkg
// on its stack, or the grace period ends; it returns the stacks of those
// that remain.
func leaked(pkg string, grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var out []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, pkg+".") && !strings.Contains(g, "qosneg/internal/testleak.") {
				out = append(out, g)
			}
		}
		if len(out) == 0 || time.Now().After(deadline) {
			return out
		}
		time.Sleep(10 * time.Millisecond)
	}
}
