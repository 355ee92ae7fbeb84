package core

// The state codec of the six protocol aggregators is CounterBlock's
// (block.go). What is left here is the sharded wrapper's, which
// serializes as the one sequential aggregator it is equivalent to.

// MarshalState merges every shard into one sequential snapshot and
// serializes it: the blob is the state of an equivalent sequential
// aggregator, so it restores into sharded and sequential deployments
// alike.
func (s *ShardedAggregator) MarshalState() ([]byte, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap.MarshalState()
}

// UnmarshalState loads the blob into shard 0 and resets the remaining
// shards to empty, so the merged view equals the marshaled state. Not
// safe for use concurrently with writers consuming reports.
func (s *ShardedAggregator) UnmarshalState(data []byte) error {
	fresh := s.newShard()
	if err := fresh.UnmarshalState(data); err != nil {
		return err
	}
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	s.shards[0].agg = fresh
	for i := 1; i < len(s.shards); i++ {
		s.shards[i].agg = s.newShard()
	}
	s.n.Store(int64(fresh.N()))
	for i := range s.shards {
		// Every shard's state was replaced (even the emptied ones), so
		// every per-shard version must move or a delta snapshot would
		// keep serving the pre-restore contribution of an "unchanged"
		// shard.
		s.shards[i].ver.Add(1)
		s.shards[i].mu.Unlock()
	}
	return nil
}
