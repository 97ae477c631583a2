package protocol

import (
	"testing"

	"qosneg/internal/testleak"
)

// TestMain fails the package when a test leaves a reader, writer, stream
// worker or watch loop running after the connection or server it belongs to.
func TestMain(m *testing.M) { testleak.Main(m, "qosneg/internal/protocol") }
