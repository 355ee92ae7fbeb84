package core

import (
	"fmt"
)

// Delta snapshots. A materialized-view refresh needs the merged state of
// every shard, but between two refreshes only the shards that ingested
// anything have changed — and aggregation state is integer counters, so
// a shard's new contribution can replace its old one exactly:
//
//	cum -= old copy of shard i;  old copy := shard i;  cum += old copy
//
// SnapshotArena owns that machinery: one private per-shard state copy
// per shard, plus the cumulative aggregator equal to the merge of those
// copies. SnapshotDeltaInto touches only shards whose mutation version
// moved since the arena's last capture, and every buffer is reused
// across captures, so a steady-state refresh with a small delta costs
// O(touched shards × state) and allocates nothing. Because the fold is
// integer arithmetic, the cumulative state is bit-identical to a fresh
// Snapshot of the same shards, no matter how many deltas were folded.

// StateArena is the caller-owned reusable state behind delta snapshots.
// Implementations are NOT safe for concurrent use: an arena belongs to
// one refresh loop (e.g. a view engine, which serializes builds).
type StateArena interface {
	// State returns the cumulative aggregator as of the last
	// SnapshotDeltaInto call. The arena owns it and mutates it on the
	// next capture: callers must finish reading before folding again
	// and must never mutate it themselves.
	State() Aggregator
	// Primed reports whether the arena holds a captured state: false on
	// a fresh arena, after Reset, and after a failed fold (the next
	// capture then re-derives the cumulative aggregator from scratch).
	// Composed arenas layered on top of this one watch Primed to learn
	// when their own folded contributions were dropped by a recapture.
	Primed() bool
	// Reset discards the incremental state, so the next capture
	// re-derives the cumulative aggregator from scratch. For owners
	// that no longer trust the cumulative state: a composed arena whose
	// own fold failed half-applied, the view engine after a failed
	// capture or build.
	Reset()
}

// stateCopier is optionally implemented by aggregators that can replace
// their state with a deep copy of another's, reusing their own buffers.
type stateCopier interface {
	CopyStateFrom(other Aggregator) error
}

// unmerger is optionally implemented by aggregators that can subtract a
// previously merged contribution — the inverse of Merge over the
// integer counter state.
type unmerger interface {
	Unmerge(other Aggregator) error
}

// supportsDelta reports whether aggregators from this factory can back a
// delta arena (deep copy + exact unmerge).
func supportsDelta(newShard func() Aggregator) bool {
	probe := newShard()
	if _, ok := probe.(stateCopier); !ok {
		return false
	}
	_, ok := probe.(unmerger)
	return ok
}

// shardArena is the StateArena over one ShardedAggregator.
type shardArena struct {
	src    *ShardedAggregator
	vers   []uint64     // per-shard version at last capture
	copies []Aggregator // per-shard state copies at last capture
	cum    Aggregator   // merge of copies
	primed bool
}

// NewSnapshotArena returns a reusable delta-snapshot arena over the
// aggregator, or nil when the protocol's aggregators do not support
// exact delta folding (callers then fall back to full Snapshot calls).
// The arena is owned by the caller and must not be shared across
// goroutines; multiple arenas over one aggregator are independent.
func (s *ShardedAggregator) NewSnapshotArena() StateArena {
	if !supportsDelta(s.newShard) {
		return nil
	}
	a := &shardArena{
		src:    s,
		vers:   make([]uint64, len(s.shards)),
		copies: make([]Aggregator, len(s.shards)),
		cum:    s.newShard(),
	}
	for i := range a.copies {
		a.copies[i] = s.newShard()
	}
	return a
}

func (a *shardArena) State() Aggregator { return a.cum }
func (a *shardArena) Primed() bool      { return a.primed }

func (a *shardArena) Reset() { a.primed = false }

// SnapshotDeltaInto advances the arena to the aggregator's current
// state, copying only shards whose version moved since the arena's last
// capture and folding each changed shard's old and new contribution
// through exact integer unmerge/merge. It returns how many shards were
// folded. On an unprimed (fresh or Reset) arena every shard is captured
// and the cumulative aggregator is re-derived from scratch, making its
// counters — and, because the fold is exact, every later incremental
// capture's counters — bit-identical to Snapshot's.
//
// Shards are locked one at a time, exactly like Snapshot, so ingestion
// stalls for at most one shard's copy. The arena must have been created
// by this aggregator's NewSnapshotArena.
func (s *ShardedAggregator) SnapshotDeltaInto(arena StateArena) (touched int, err error) {
	a, ok := arena.(*shardArena)
	if !ok {
		return 0, fmt.Errorf("core: arena of type %T was not created by a ShardedAggregator", arena)
	}
	if a.src != s {
		return 0, fmt.Errorf("core: arena belongs to a different ShardedAggregator")
	}
	if !a.primed {
		// Cold capture: re-derive cum exactly like Snapshot does — a
		// fresh accumulator merged with each shard in index order — so
		// the cold state is bit-identical to Snapshot's, then keep the
		// per-shard copies for later deltas.
		a.cum = s.newShard()
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			cerr := a.copies[i].(stateCopier).CopyStateFrom(sh.agg)
			a.vers[i] = sh.ver
			sh.mu.Unlock()
			if cerr != nil {
				return touched, fmt.Errorf("core: delta snapshot of shard %d: %w", i, cerr)
			}
			if merr := a.cum.Merge(a.copies[i]); merr != nil {
				return touched, fmt.Errorf("core: delta snapshot of shard %d: %w", i, merr)
			}
			touched++
		}
		a.primed = true
		return touched, nil
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.ver == a.vers[i] {
			sh.mu.Unlock()
			continue
		}
		// Replace this shard's contribution: subtract the old copy from
		// cum, refresh the copy under the shard lock, and add it back.
		// All integer counter arithmetic — exact in any order.
		if uerr := a.cum.(unmerger).Unmerge(a.copies[i]); uerr != nil {
			sh.mu.Unlock()
			a.primed = false
			return touched, fmt.Errorf("core: delta snapshot of shard %d: %w", i, uerr)
		}
		cerr := a.copies[i].(stateCopier).CopyStateFrom(sh.agg)
		a.vers[i] = sh.ver
		sh.mu.Unlock()
		if cerr != nil {
			a.primed = false
			return touched, fmt.Errorf("core: delta snapshot of shard %d: %w", i, cerr)
		}
		if merr := a.cum.Merge(a.copies[i]); merr != nil {
			a.primed = false
			return touched, fmt.Errorf("core: delta snapshot of shard %d: %w", i, merr)
		}
		touched++
	}
	return touched, nil
}

// MergeAggregators folds src into dst through the canonical Merge path.
// It exists so packages composing delta arenas (e.g. a coordinator's
// fleet) can fold foreign contributions into an arena's cumulative
// state; UnmergeAggregators is the exact inverse. dst must support
// unmerging for the pair to be usable in a delta fold.
func MergeAggregators(dst, src Aggregator) error { return dst.Merge(src) }

// UnmergeAggregators subtracts a previously merged contribution from
// dst. It fails when dst's protocol does not support exact unmerging.
func UnmergeAggregators(dst, src Aggregator) error {
	u, ok := dst.(unmerger)
	if !ok {
		return fmt.Errorf("core: %T does not support unmerging", dst)
	}
	return u.Unmerge(src)
}

// SupportsDeltaSnapshots reports whether the aggregator's protocol can
// back delta arenas (NewSnapshotArena returns non-nil).
func (s *ShardedAggregator) SupportsDeltaSnapshots() bool {
	return supportsDelta(s.newShard)
}
