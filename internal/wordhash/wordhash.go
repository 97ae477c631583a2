// Package wordhash is the one multiply-and-fold mixer behind the in-memory
// keys of negotiation: the machine fingerprint, the offer cache's shard and
// exclusion hashes, and the profile rank digest. It folds a word at a time,
// with one 64×64→128-bit multiply per fold.
package wordhash

import "math/bits"

// Start is a fixed initial state, for a hash whose values must be the same
// in every run: the machine fingerprint and the offer cache's shard hash, so
// that a seeded benchmark places every key in the same shard each time.
const Start uint64 = 0x243f6a8885a308d3

// golden is Word's fixed multiplier key.
const golden uint64 = 0x9e3779b97f4a7c15

// Mix folds the words a and b into the state h: the 128-bit product of h^a
// and b^key, folded back to 64 bits. A secret key (with a secret start
// state) keeps a crafted b from zeroing the product on purpose.
func Mix(h, a, b, key uint64) uint64 {
	hi, lo := bits.Mul64(h^a, b^key)
	return hi ^ lo
}

// Word folds one word into h under the fixed key.
func Word(h, v uint64) uint64 { return Mix(h, v, 0, golden) }

// String folds s into h eight bytes at a time, little-endian, and the last
// bytes together with the length of s, so that zero padding cannot make two
// strings collide.
func String(h uint64, s string) uint64 {
	n := uint64(len(s))
	for ; len(s) >= 8; s = s[8:] {
		h = Word(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	var tail uint64
	for i := len(s) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(s[i])
	}
	return Mix(h, tail, n, golden)
}
