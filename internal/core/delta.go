package core

import "fmt"

// Delta snapshots. A materialized-view refresh needs the merged state of
// every contribution — a shard, a sealed window bucket, a peer's state
// component — but between two refreshes only some of them changed, and
// aggregation state is integer counters, so a contribution's new state
// can replace its old one exactly:
//
//	cum -= old contribution;  cum += new contribution
//
// A source lists its contributions as Parts (ShardedAggregator.AppendParts
// one per shard; the window ring, which is every ingesting node's source,
// one per sealed bucket plus its live bucket's shards; a coordinator's
// fleet one per held peer component), and its consumer — the view
// engine, the /state exporter — folds them through a FoldArena of its
// own, the cumulative aggregator equal to the merge of the parts it
// holds. A capture folds only the parts whose label moved, so a
// steady-state refresh with a small delta costs O(moved × state), and
// because the fold is integer arithmetic the cumulative state is
// bit-identical to a fresh merge of the same contributions. Every served
// protocol's aggregator is a Folder (CheckFolds); the first capture, one
// after Reset and one after a failed fold merge every part from scratch.

// Folder is the contract of every protocol a deployment serves: an
// aggregator that besides Merge has its exact integer inverse, Unmerge,
// and CopyStateFrom, which replaces its state with a deep copy of
// another's, reusing its own buffers, and that reconstructs its whole
// k-way collection in one call. The six core protocols and InpHTCMS get
// the first two from the CounterBlock they embed.
type Folder interface {
	Aggregator
	Unmerge(other Aggregator) error
	CopyStateFrom(other Aggregator) error
	// KWayTablesInto reconstructs every table of the arena (built by
	// NewKWayArena for the protocol's Config) from this non-empty
	// aggregator, with each table's user count; AllKWayTablesInto, its
	// caller, serves the empty aggregator. It is the one reconstruction
	// path of a served collection: a Fourier protocol runs the subcube
	// kernel (KWayArena.reconstructFrom or ReconstructDomain), a
	// marginal-view protocol each table's own accumulator.
	KWayTablesInto(a *KWayArena) error
}

// CheckFolds reports whether p's aggregators are Folders, which serving p
// — delta folds, windows, a coordinator's fleet, the view's k-way
// reconstruction — requires. The InpEM and InpOLH baselines keep raw
// reports and are not: they run through core.Run.
func CheckFolds(p Protocol) error {
	if _, ok := p.NewAggregator().(Folder); !ok {
		return fmt.Errorf("core: protocol %s cannot be served: its aggregator cannot be copied and unmerged exactly, or cannot reconstruct its k-way collection; run it with ldpmarg or cmd/experiments", p.Name())
	}
	return nil
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
	// folds, so a live source is copied only when its label moved. prev is
	// the contribution the arena held under the same key, already
	// unmerged from the cumulative state, or nil for a new key and on a
	// cold capture: a source that copies mutable state may copy into it
	// and return it, and an immutable source ignores it. The arena holds
	// the result until the part is dropped or refolded: no one else may
	// mutate it meanwhile.
	Agg func(prev Aggregator) (Aggregator, error)
}

// FoldArena is the caller-owned reusable state behind delta snapshots:
// the merge of a keyed set of version-labelled parts. It is NOT safe for
// concurrent use: an arena belongs to one refresh loop (e.g. a view
// engine, which serializes builds).
type FoldArena struct {
	empty  func() Aggregator
	cum    Folder
	held   map[any]heldPart
	syncs  uint64 // primed Syncs run; a held part not listed by the last one is dropped
	primed bool
}

type heldPart struct {
	version uint64
	agg     Aggregator
	synced  uint64 // the primed Sync that last listed the key
}

// NewFoldArena returns an empty arena whose cumulative state is built
// from empty's aggregators, which must be Folders. State is nil until the
// first Sync.
func NewFoldArena(empty func() Aggregator) *FoldArena {
	return &FoldArena{empty: empty}
}

// State returns the cumulative aggregator as of the last Sync. The arena
// owns it and mutates it on the next Sync: callers must finish reading
// before folding again and must never mutate it themselves.
func (a *FoldArena) State() Aggregator { return a.cum }

// Primed reports whether the next Sync folds only what moved: false on a
// fresh arena, after Reset and after a failed fold, when the next Sync
// re-derives the cumulative aggregator from scratch.
func (a *FoldArena) Primed() bool { return a.primed }

// Reset makes the next Sync re-derive the cumulative aggregator from
// scratch, for owners that no longer trust it, such as the view engine
// after a failed capture or build.
func (a *FoldArena) Reset() { a.primed = false }

// Sync advances the arena to the current set of parts and returns how
// many it folded. A primed arena merges new keys, unmerges and re-merges
// keys whose version moved, and unmerges keys no longer in the set; each
// counts as one. Any fold error un-primes the arena. An unprimed arena —
// fresh, Reset or after an error — merges every part from scratch in the
// caller's order and is primed when that succeeds. An empty aggregator
// that is not a Folder is an error.
func (a *FoldArena) Sync(parts []Part) (touched int, err error) {
	if !a.primed {
		agg := a.empty()
		cum, ok := agg.(Folder)
		if !ok {
			return 0, fmt.Errorf("core: %T cannot be unmerged, so it cannot hold a fold", agg)
		}
		return a.cold(cum, parts)
	}
	defer func() {
		if err != nil {
			a.primed = false
		}
	}()
	a.syncs++
	for _, p := range parts {
		h, ok := a.held[p.Key]
		if !ok || h.version != p.Version {
			if ok {
				if err := a.cum.Unmerge(h.agg); err != nil {
					return touched, fmt.Errorf("core: unfolding a moved contribution: %w", err)
				}
			}
			agg, err := p.Agg(h.agg)
			if err != nil {
				return touched, err
			}
			if err := a.cum.Merge(agg); err != nil {
				return touched, fmt.Errorf("core: folding a contribution: %w", err)
			}
			h.version, h.agg = p.Version, agg
			touched++
		}
		h.synced = a.syncs
		a.held[p.Key] = h
	}
	for k, h := range a.held {
		if h.synced == a.syncs {
			continue
		}
		if err := a.cum.Unmerge(h.agg); err != nil {
			return touched, fmt.Errorf("core: unfolding a dropped contribution: %w", err)
		}
		delete(a.held, k)
		touched++
	}
	return touched, nil
}

// cold re-derives the cumulative state cum from every part and primes
// the arena on the parts it holds.
func (a *FoldArena) cold(cum Folder, parts []Part) (int, error) {
	held := make(map[any]heldPart, len(parts))
	for _, p := range parts {
		agg, err := p.Agg(nil)
		if err != nil {
			return 0, err
		}
		if err := cum.Merge(agg); err != nil {
			return 0, fmt.Errorf("core: folding a contribution: %w", err)
		}
		held[p.Key] = heldPart{version: p.Version, agg: agg}
	}
	a.cum, a.held, a.primed = cum, held, true
	return len(parts), nil
}

// AppendParts appends one Part per shard to dst and returns the extended
// slice. A part is keyed by its shard, so arenas fed by different
// aggregators never confuse their parts, and labelled by the shard's
// mutation counter, read before the copy so the label can only trail
// the content. Its Agg copies the shard under the shard's lock: into
// prev, so a primed capture reuses the copy it refolds, or on a new key
// and a cold capture into a fresh aggregator.
func (s *ShardedAggregator) AppendParts(dst []Part) []Part {
	for i := range s.shards {
		sh := &s.shards[i]
		dst = append(dst, Part{Key: sh, Version: sh.ver.Load(), Agg: sh.capture})
	}
	return dst
}

// copyShard is a shard part's Agg.
func (s *ShardedAggregator) copyShard(sh *aggShard, prev Aggregator) (Aggregator, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev == nil {
		out := s.newShard()
		return out, out.Merge(sh.agg)
	}
	return prev, prev.(Folder).CopyStateFrom(sh.agg)
}

// NewSnapshotArena and SnapshotDeltaInto fold the shards through an arena
// with a fresh parts slice per call, for the per-layer benchmark only
// (bench/layers.go); the engine and the exporter reuse theirs.
func (s *ShardedAggregator) NewSnapshotArena() *FoldArena { return NewFoldArena(s.newShard) }

// SnapshotDeltaInto folds the shards' current parts into a.
func (s *ShardedAggregator) SnapshotDeltaInto(a *FoldArena) (int, error) {
	return a.Sync(s.AppendParts(make([]Part, 0, len(s.shards))))
}

// MergeAggregators folds src into dst through the canonical Merge path;
// UnmergeAggregators is the exact inverse.
func MergeAggregators(dst, src Aggregator) error { return dst.Merge(src) }

// UnmergeAggregators subtracts a previously merged contribution from
// dst. It fails when dst is not a Folder.
func UnmergeAggregators(dst, src Aggregator) error {
	f, ok := dst.(Folder)
	if !ok {
		return fmt.Errorf("core: %T does not support unmerging", dst)
	}
	return f.Unmerge(src)
}
