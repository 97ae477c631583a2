package wordhash

import "testing"

// TestStringDistinguishes: strings that differ in one byte, in a zero
// padding byte or in length hash apart, and a hash depends only on its
// input and start state.
func TestStringDistinguishes(t *testing.T) {
	inputs := []string{"", "\x00", "\x00\x00", "a", "b", "ab", "ba", "abcdefg", "abcdefgh",
		"abcdefgh\x00", "abcdefghi", "abcdefgi", "MPEG-1", "MPEG-2", "MPEG-1\x00"}
	seen := map[uint64]string{}
	for _, s := range inputs {
		h := String(Start, s)
		if h != String(Start, s) {
			t.Fatalf("%q hashes differently twice", s)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("%q and %q collide", prev, s)
		}
		seen[h] = s
		if String(Start+1, s) == h {
			t.Errorf("%q: the start state does not reach the hash", s)
		}
	}
}

// TestStringIsFixed: a hash from Start is the same in every run.
func TestStringIsFixed(t *testing.T) {
	if h := String(Start, "news-1"); h != 0x23e77a24e7927b56 {
		t.Errorf("String(Start, %q) = %#x, want the fixed 0x23e77a24e7927b56", "news-1", h)
	}
}

// TestStringAllocatesNothing: hashing a string reads it in place.
func TestStringAllocatesNothing(t *testing.T) {
	s := "a decoder name longer than one word"
	if n := testing.AllocsPerRun(100, func() { _ = String(Start, s) }); n != 0 {
		t.Errorf("String allocates %v times", n)
	}
}
