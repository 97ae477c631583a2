package main

import (
	"testing"

	"qosneg/internal/testleak"
)

// TestMain fails the package when a test leaves a protocol reader, writer,
// handler or watch loop running after the daemon or client it belongs to.
func TestMain(m *testing.M) { testleak.Main(m, "qosneg/internal/protocol") }
