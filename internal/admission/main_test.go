package admission

import (
	"testing"

	"qosneg/internal/testleak"
)

func TestMain(m *testing.M) { testleak.Main(m, "qosneg/internal/admission") }
