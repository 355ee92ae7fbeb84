package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardedAggregator holds P independent per-shard accumulators of a
// protocol, so that concurrent writers contend on P mutexes instead of
// one. It is no Aggregator itself: writers call ConsumeBatch, readers
// take a Snapshot (one sequential aggregator) or list the shards as
// parts (AppendParts, the view.Source a node's view folds). Aggregation
// in every protocol is associative and commutative (integer counters),
// so a snapshot is byte-identical to a single sequential aggregator fed
// the same reports in any order; the equivalence tests in sharded_test.go
// pin this down.
//
// Writers are routed round-robin: each ConsumeBatch locks one shard for
// the whole batch, amortizing the lock acquisition across the batch. N
// is maintained in an atomic counter so readers (e.g. a /status
// endpoint) never take a lock.
//
// Shard count: ingestion throughput scales with shards until they exceed
// the number of writer threads; beyond that, extra shards only grow the
// O(shards * state) memory and Snapshot cost. GOMAXPROCS (the default)
// is the right choice unless the aggregator state is very large (InpPS
// at d = 20, the largest state a server holds), where fewer shards
// bound memory.
type ShardedAggregator struct {
	newShard func() Aggregator
	shards   []aggShard
	next     atomic.Uint64
	n        atomic.Int64
}

// aggShard pairs one accumulator with its lock and its own mutation
// version, advanced under the lock after every state change so a delta
// snapshot (AppendParts) can skip shards that did not move since its
// last capture, reading the version without the lock. The pad separates
// shards into distinct cache lines so uncontended locks don't
// false-share.
type aggShard struct {
	mu      sync.Mutex
	agg     Aggregator
	ver     atomic.Uint64                             // mutation version; advanced under mu
	capture func(prev Aggregator) (Aggregator, error) // the shard's Part.Agg, built once
	_       [24]byte
}

// NewSharded builds a sharded aggregator over p with the given shard
// count; shards <= 0 selects GOMAXPROCS.
func NewSharded(p Protocol, shards int) *ShardedAggregator {
	s := &ShardedAggregator{newShard: p.NewAggregator, shards: make([]aggShard, ResolveShards(shards))}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.agg = p.NewAggregator()
		sh.capture = func(prev Aggregator) (Aggregator, error) { return s.copyShard(sh, prev) }
	}
	return s
}

// ResolveShards returns the shard count NewSharded builds for a requested
// count: shards itself, or GOMAXPROCS when shards <= 0.
func ResolveShards(shards int) int {
	if shards <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return shards
}

// pick routes the next write to a shard round-robin.
func (s *ShardedAggregator) pick() *aggShard {
	return &s.shards[s.next.Add(1)%uint64(len(s.shards))]
}

// ConsumeBatch incorporates the whole batch into one shard under a
// single lock acquisition. Safe for concurrent use; concurrent batches
// land on distinct shards and proceed in parallel. Like the sequential
// contract, reports preceding a rejected report remain consumed.
func (s *ShardedAggregator) ConsumeBatch(reps []Report) error {
	if len(reps) == 0 {
		return nil
	}
	sh := s.pick()
	sh.mu.Lock()
	before := sh.agg.N()
	err := sh.agg.ConsumeBatch(reps)
	consumed := sh.agg.N() - before
	if consumed > 0 {
		sh.ver.Add(1)
	}
	sh.mu.Unlock()
	s.n.Add(int64(consumed))
	return err
}

// N returns the number of reports consumed so far. Lock-free: it reads
// one atomic counter and never blocks writers.
func (s *ShardedAggregator) N() int { return int(s.n.Load()) }

// Snapshot merges every shard into a fresh sequential aggregator and
// returns it. Shards are locked one at a time, so ingestion stalls for
// at most one shard's merge; the returned aggregator is private to the
// caller and safe to query without locks. Reports arriving while the
// snapshot walks the shards may or may not be included.
func (s *ShardedAggregator) Snapshot() (Aggregator, error) {
	out := s.newShard()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := out.Merge(sh.agg)
		sh.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot of shard %d: %w", i, err)
		}
	}
	return out, nil
}

// Merge folds a sequential aggregator of the same protocol into shard 0
// (a recovered state). The other aggregator must not be written
// concurrently.
func (s *ShardedAggregator) Merge(other Aggregator) error {
	added := other.N()
	sh := &s.shards[0]
	sh.mu.Lock()
	err := sh.agg.Merge(other)
	if err == nil {
		sh.ver.Add(1)
	}
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	s.n.Add(int64(added))
	return nil
}
