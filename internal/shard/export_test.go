package shard

import "qosneg/internal/core"

// Manager returns shard i's manager, for tests that drive one shard
// directly.
func Manager(f *Fleet, i int) *core.Manager { return f.shards[i].mgr }
