package protocol

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a test leaves a goroutine running inside
// this package: a reader, writer, handler or watch loop that outlives the
// connection or server it belongs to. Goroutines get a second to wind down.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutine(s) still inside qosneg/internal/protocol:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines polls until no goroutine other than the caller has a
// frame of this package on its stack, or the grace period ends; it returns
// the stacks of those that remain.
func leakedGoroutines(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		var leaked []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "qosneg/internal/protocol.") && !strings.Contains(g, "protocol.leakedGoroutines") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}
