// Package shard fronts N independent core.Manager shards behind
// consistent-hash session routing, exposing the same manager surface
// (core.SessionManager) — so the facade, protocol server and admission
// controller sit on top of a fleet exactly as they sit on top of a single
// manager. See DESIGN.md §14 for the topology and the shared-state
// argument.
package shard

import "qosneg/internal/core"

// jumpHash is Lamping & Veach's jump consistent hash: it maps a 64-bit key
// onto [0, buckets) such that growing the bucket count from N to N+1 moves
// only ~1/(N+1) of the keys — and every moved key moves to the new bucket,
// never between existing ones. That is exactly the resharding stability the
// session router needs: a fleet resized from N to N+1 shards keeps N/(N+1)
// of its session-to-shard assignments.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// mix is the splitmix64 finalizer. Session ids are small sequential
// integers, which jump hash distributes poorly on its own (consecutive keys
// land in runs); the finalizer spreads them uniformly over the 64-bit space
// first.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardOf maps a session id to its home shard.
func shardOf(id core.SessionID, shards int) int {
	if shards <= 1 {
		return 0
	}
	return jumpHash(mix(uint64(id)), shards)
}
