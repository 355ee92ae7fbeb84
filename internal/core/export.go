package core

import "fmt"

// ShardExport is one shard's marshaled state, labeled with the shard's
// own mutation version.
type ShardExport struct {
	// Index is the shard's position (stable for the process lifetime).
	Index int
	// Version is the shard's mutation counter, read under the shard lock
	// together with the state copy, so the pair is exactly consistent.
	Version uint64
	// N is the shard's report count at the copy.
	N int
	// State is the shard's canonical Aggregator.MarshalState blob.
	State []byte
}

// ExportShards marshals every non-empty shard under its own lock and
// returns the exports plus the full per-shard version vector (over all
// shards, empty ones included). Each (Version, State) pair is captured
// atomically under the shard lock, so a shard export's label never
// trails its content; across shards the walk is only loosely consistent,
// exactly like Snapshot. Empty shards (no reports consumed) are omitted
// from the exports — their version cannot have moved, since every
// mutation that bumps a shard version also lands reports — but still
// appear in the vector. The /state export ships the shards merged
// (AppendParts); this decomposition is what the per-layer
// benchmark rows and the reassembly tests measure it against. No
// serving path calls it: it stays for bench/layers.go until the
// benchmark drops those rows.
func (s *ShardedAggregator) ExportShards() ([]ShardExport, []uint64, error) {
	exps := make([]ShardExport, 0, len(s.shards))
	vers := make([]uint64, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		vers[i] = sh.ver.Load()
		n := sh.agg.N()
		var (
			blob []byte
			err  error
		)
		if n > 0 {
			blob, err = sh.agg.MarshalState()
		}
		sh.mu.Unlock()
		if err != nil {
			return nil, nil, fmt.Errorf("core: exporting shard %d: %w", i, err)
		}
		if n > 0 {
			exps = append(exps, ShardExport{Index: i, Version: vers[i], N: n, State: blob})
		}
	}
	return exps, vers, nil
}
