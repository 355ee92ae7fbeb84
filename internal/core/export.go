package core

import "fmt"

// ShardExport is one shard's marshaled state, labeled with the shard's
// own mutation version — the unit a delta-capable /state export ships.
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
// appear in the vector. A consumer diffing two vectors therefore
// registers an empty-to-nonempty transition (the shard version moved)
// without ever shipping empty blobs; an importer missing an omitted
// shard simply holds nothing for it, which is what empty means.
func (s *ShardedAggregator) ExportShards() ([]ShardExport, []uint64, error) {
	return s.ExportShardsReusing(nil)
}

// ExportShardsReusing is ExportShards for a caller that kept the exports
// of an earlier call: a shard whose version still equals the one in prev
// is not marshaled again and its earlier export is returned, so the work
// is proportional to the shards that moved. prev must be the unmodified
// result of an export of this aggregator (ordered by Index).
func (s *ShardedAggregator) ExportShardsReusing(prev []ShardExport) ([]ShardExport, []uint64, error) {
	exps := make([]ShardExport, 0, len(s.shards))
	vers := make([]uint64, len(s.shards))
	for i := range s.shards {
		for len(prev) > 0 && prev[0].Index < i {
			prev = prev[1:]
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		vers[i] = sh.ver
		if len(prev) > 0 && prev[0].Index == i && prev[0].Version == sh.ver {
			sh.mu.Unlock()
			exps = append(exps, prev[0])
			continue
		}
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
