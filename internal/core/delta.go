package core

import (
	"fmt"
)

// Delta snapshots. A materialized-view refresh needs the merged state of
// every contribution — a shard, a sealed window bucket, a peer's state
// component — but between two refreshes only some of them changed, and
// aggregation state is integer counters, so a contribution's new state
// can replace its old one exactly:
//
//	cum -= old contribution;  cum += new contribution
//
// A StateArena owns that machinery: the cumulative aggregator equal to
// the merge of the contributions it holds. A capture folds only the
// contributions whose label moved since the arena's last capture, so a
// steady-state refresh with a small delta costs O(moved × state).
// Because the fold is integer arithmetic, the cumulative state is
// bit-identical to a fresh merge of the same contributions, no matter how
// many deltas were folded. Over a protocol without exact unmerge an arena
// is never primed: every capture merges from scratch.
//
// There are two arenas. shardArena holds private copies of a
// ShardedAggregator's mutable shards, refreshed under their locks.
// FoldArena holds references to immutable contributions its caller names
// by key.

// StateArena is the caller-owned reusable state behind delta snapshots.
// Implementations are NOT safe for concurrent use: an arena belongs to
// one refresh loop (e.g. a view engine, which serializes builds).
type StateArena interface {
	// State returns the cumulative aggregator as of the last capture.
	// The arena owns it and mutates it on the next capture: callers must
	// finish reading before folding again and must never mutate it
	// themselves.
	State() Aggregator
	// Primed reports whether the next capture folds only what moved:
	// false on a fresh arena, after Reset, after a failed fold (the next
	// capture then re-derives the cumulative aggregator from scratch), and
	// always over a protocol without exact unmerge.
	Primed() bool
	// Reset discards the incremental state, so the next capture
	// re-derives the cumulative aggregator from scratch. For owners that
	// no longer trust the cumulative state, such as the view engine after
	// a failed capture or build.
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

// supportsDelta reports whether agg's protocol can back a shard arena
// (deep copy + exact unmerge).
func supportsDelta(agg Aggregator) bool {
	if _, ok := agg.(stateCopier); !ok {
		return false
	}
	_, ok := agg.(unmerger)
	return ok
}

// shardArena is the StateArena over one ShardedAggregator.
type shardArena struct {
	src    *ShardedAggregator
	vers   []uint64     // per-shard version at last capture
	copies []Aggregator // per-shard state copies at last capture; nil without delta support
	cum    Aggregator   // merge of copies
	primed bool
}

// NewSnapshotArena returns a reusable snapshot arena over the
// aggregator. Over a protocol that cannot back exact delta folds the
// arena holds no shard copies and every capture is a full Snapshot. The
// arena is owned by the caller and must not be shared across goroutines;
// multiple arenas over one aggregator are independent.
func (s *ShardedAggregator) NewSnapshotArena() StateArena {
	a := &shardArena{src: s, cum: s.newShard()}
	if s.delta {
		a.vers = make([]uint64, len(s.shards))
		a.copies = make([]Aggregator, len(s.shards))
		for i := range a.copies {
			a.copies[i] = s.newShard()
		}
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
// capture's counters — bit-identical to Snapshot's. Over a protocol
// without exact folds every call is Snapshot.
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
	if !s.delta {
		cum, err := s.Snapshot()
		if err != nil {
			return 0, err
		}
		a.cum = cum
		return len(s.shards), nil
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

// Part is one contribution offered to FoldArena.Sync.
type Part struct {
	// Key names the contribution and must be comparable. A held key
	// missing from a later Sync's set is dropped.
	Key any
	// Version labels the contribution's state: a held key is refolded
	// only when its label changes.
	Version uint64
	// Agg returns the contribution. Sync calls it only for a part it
	// folds, so a live source is snapshotted only when its label moved.
	// The arena holds the result by reference until the part is dropped
	// or refolded: it must not be mutated meanwhile.
	Agg func() (Aggregator, error)
}

// FoldArena is the StateArena over a keyed set of immutable,
// version-labelled contributions, such as a coordinator's peer
// components or a window's sealed buckets. It holds references, never
// copies.
type FoldArena struct {
	empty  func() Aggregator
	cum    Aggregator
	held   map[any]heldPart
	primed bool
}

type heldPart struct {
	version uint64
	agg     Aggregator
}

// NewFoldArena returns an empty arena whose cumulative state is built
// from empty's aggregators. State is nil until the first Sync.
func NewFoldArena(empty func() Aggregator) *FoldArena {
	return &FoldArena{empty: empty}
}

func (a *FoldArena) State() Aggregator { return a.cum }
func (a *FoldArena) Primed() bool      { return a.primed }
func (a *FoldArena) Reset()            { a.primed = false }

// Sync advances the arena to the current set of parts and returns how
// many it folded. A primed arena merges new keys, unmerges and re-merges
// keys whose version moved, and unmerges keys no longer in the set; each
// counts as one. Any fold error un-primes the arena. An unprimed arena —
// fresh, Reset, after an error, and always over an aggregator without
// exact Unmerge — merges every part from scratch in the caller's order.
func (a *FoldArena) Sync(parts []Part) (touched int, err error) {
	if !a.primed {
		return a.cold(parts)
	}
	defer func() {
		if err != nil {
			a.primed = false
		}
	}()
	next := make(map[any]heldPart, len(parts))
	for _, p := range parts {
		h, ok := a.held[p.Key]
		delete(a.held, p.Key)
		if !ok || h.version != p.Version {
			agg, err := p.Agg()
			if err != nil {
				return touched, err
			}
			if ok {
				if err := a.cum.(unmerger).Unmerge(h.agg); err != nil {
					return touched, fmt.Errorf("core: unfolding a moved contribution: %w", err)
				}
			}
			if err := a.cum.Merge(agg); err != nil {
				return touched, fmt.Errorf("core: folding a contribution: %w", err)
			}
			h = heldPart{version: p.Version, agg: agg}
			touched++
		}
		next[p.Key] = h
	}
	for _, h := range a.held {
		if err := a.cum.(unmerger).Unmerge(h.agg); err != nil {
			return touched, fmt.Errorf("core: unfolding a dropped contribution: %w", err)
		}
		touched++
	}
	a.held = next
	return touched, nil
}

// cold re-derives the cumulative state from every part.
func (a *FoldArena) cold(parts []Part) (int, error) {
	cum := a.empty()
	held := make(map[any]heldPart, len(parts))
	for _, p := range parts {
		agg, err := p.Agg()
		if err != nil {
			return 0, err
		}
		if err := cum.Merge(agg); err != nil {
			return 0, fmt.Errorf("core: folding a contribution: %w", err)
		}
		held[p.Key] = heldPart{version: p.Version, agg: agg}
	}
	a.cum, a.held = cum, held
	_, a.primed = cum.(unmerger)
	return len(parts), nil
}

// MergeAggregators folds src into dst through the canonical Merge path;
// UnmergeAggregators is the exact inverse. dst must support unmerging
// for the pair to be usable in a delta fold.
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
// back exact delta folds, as decided once from shard 0 when the
// aggregator was built.
func (s *ShardedAggregator) SupportsDeltaSnapshots() bool { return s.delta }
