// Package window turns the aggregation core into a continual release: a
// ring of time-bucketed sub-aggregators in front of
// core.ShardedAggregator, answering "marginals over the last W of wall
// time" instead of "marginals since the collection started". A ring with
// no window is the cumulative release itself: its live bucket never
// seals, so every ingesting node holds a ring.
//
// Incoming reports land in the live bucket (a ShardedAggregator, so
// ingestion keeps its lock-free fan-out). When the live bucket's time
// span ends it is sealed: snapshotted once and frozen — sealed bucket
// state is immutable for the rest of its life. When a sealed bucket
// slides out of the window it is dropped from the ring. Every protocol
// aggregator is an integer counter vector with a canonical codec, so a
// window that still covers every bucket is bit-identical to a single
// cumulative aggregator fed the same reports.
//
// The ring is a view.Source: its parts are the sealed buckets and the
// live bucket's shards, which the engine's core.FoldArena folds, so an
// incremental refresh folds only what changed — newly sealed buckets
// merge, expired buckets unmerge, and a live shard refolds only when its
// version moved.
//
// The same parts are the unit of durability. Layout lists the sealed
// buckets with their slots on the bucket grid, plus the live bucket's
// slot and start; a store persists each sealed bucket once, and Restore
// rebuilds the ring from what it recovered, so a restarted ring expires
// every bucket exactly when a never-restarted one would.
//
// A ring requires a protocol whose aggregators fold (core.CheckFolds:
// the six core protocols and InpHTCMS); NewRing rejects the rest.
package window

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/trace"
)

// Options configures a Ring.
type Options struct {
	// Window is the sliding window span; must be a positive multiple of
	// Bucket. The ring retains Window/Bucket buckets including the live
	// one, so coverage slides between Window-Bucket and Window of wall
	// time as the live bucket fills. Window and Bucket both zero select
	// the cumulative release: a live bucket that never seals.
	Window time.Duration
	// Bucket is the rotation granularity: the live bucket seals every
	// Bucket of wall time, and expiry retires state one Bucket at a
	// time.
	Bucket time.Duration
	// Shards is the live bucket's ShardedAggregator width; values <= 0
	// select GOMAXPROCS (core.ResolveShards).
	Shards int
	// Start anchors the first bucket's span; the zero value selects
	// time.Now().
	Start time.Time
}

// Bucket is one sealed time slot: its slot on the ring's bucket grid and
// an immutable sequential snapshot of the reports that landed in its
// span.
type Bucket struct {
	Slot uint64
	Agg  core.Aggregator
}

// Layout is the ring's durable shape: its sealed buckets, oldest first,
// and the live bucket's slot and start, which anchor the bucket grid (a
// bucket's span is LiveStart - (LiveSlot-Slot)*Bucket plus one Bucket).
type Layout struct {
	Sealed    []*Bucket
	LiveSlot  uint64
	LiveStart time.Time
}

// Ring is the time-bucketed sliding-window aggregator. Ingestion and
// reads share a read lock (the live ShardedAggregator serializes
// internally); rotation takes the write lock, so a report never lands
// in a bucket that is already sealed.
type Ring struct {
	p       core.Protocol
	opts    Options
	buckets uint64 // window capacity in buckets, including the live one; 0 never seals

	mu       sync.RWMutex
	cur      atomic.Pointer[core.ShardedAggregator] // live bucket; replaced on seal
	curSeq   uint64
	curStart time.Time
	sealed   []*Bucket // retained sealed buckets, slot-ascending

	// The parts that hold reports Restore recovered: sealed buckets up to
	// restoredSlot (the live slot restored into, once that bucket seals,
	// or else the newest restored sealed bucket) and, while it is live,
	// the bucket restored into, whose first shard's part key is
	// restoredLive. restored is false when Restore recovered nothing.
	// Set by Restore before serving; read-only after.
	restored     bool
	restoredSlot uint64
	restoredLive any

	sealedN atomic.Int64
	ver     atomic.Uint64 // bumps after every state change; read-before-snapshot label
	rotated atomic.Uint64 // total bucket boundaries crossed
	expired atomic.Uint64 // total buckets retired from the window
}

// NewRing builds a ring over p; a zero Window and Bucket build the
// cumulative ring. The protocol must fold (core.CheckFolds): a folded
// view expires a bucket by an Unmerge of its sealed state.
func NewRing(p core.Protocol, opts Options) (*Ring, error) {
	if err := core.CheckFolds(p); err != nil {
		return nil, err
	}
	r := &Ring{p: p}
	if opts.Window != 0 || opts.Bucket != 0 {
		if opts.Bucket <= 0 {
			return nil, errors.New("window: bucket span must be positive")
		}
		if opts.Window <= 0 || opts.Window%opts.Bucket != 0 {
			return nil, fmt.Errorf("window: window %v must be a positive multiple of bucket %v", opts.Window, opts.Bucket)
		}
		r.buckets = uint64(opts.Window / opts.Bucket)
	}
	opts.Shards = core.ResolveShards(opts.Shards)
	if opts.Start.IsZero() {
		opts.Start = time.Now()
	}
	r.opts = opts
	// curSeq starts at the window capacity so seq arithmetic never
	// underflows; the slot index is relative, only differences matter.
	r.curSeq = r.buckets
	r.curStart = opts.Start
	r.cur.Store(core.NewSharded(p, opts.Shards))
	return r, nil
}

// Window returns the configured window span: zero for the cumulative
// ring.
func (r *Ring) Window() time.Duration { return r.opts.Window }

// Bucket returns the configured bucket span.
func (r *Ring) Bucket() time.Duration { return r.opts.Bucket }

// ConsumeBatch routes a batch into the live bucket. Partial
// consumption surfaces as core.BatchError, exactly like the sharded
// aggregator's contract. Like it, the version moves only when the live
// bucket's count did: a rejected or empty batch leaves the label alone.
func (r *Ring) ConsumeBatch(reps []core.Report) error {
	r.mu.RLock()
	cur := r.cur.Load()
	before := cur.N()
	err := cur.ConsumeBatch(reps)
	moved := cur.N() != before
	r.mu.RUnlock()
	if moved {
		r.ver.Add(1)
	}
	return err
}

// N returns the report count inside the window: sealed buckets plus the
// live one. Lock-free; during a rotation the two terms may be one
// report apart for the duration of the swap.
func (r *Ring) N() int {
	return int(r.sealedN.Load()) + r.cur.Load().N()
}

// Version is a monotonic state-change label with the read-before-
// snapshot guarantee: it is bumped after a mutation lands, so a label
// read before a snapshot can only trail the snapshot's state.
func (r *Ring) Version() uint64 { return r.ver.Load() }

// Advance rotates the ring up to now: seals every live bucket whose
// span has ended and expires every sealed bucket that slid out of the
// window. It returns how many bucket boundaries were crossed and how
// many retained buckets were retired. Callers drive it from a ticker;
// between calls the ring simply keeps filling the live bucket, so a
// late Advance only defers (never loses) rotation. On the cumulative
// ring it does nothing.
func (r *Ring) Advance(now time.Time) (rotated, expired int, err error) {
	return r.AdvanceContext(context.Background(), now)
}

// AdvanceContext is Advance with trace propagation: when ctx carries
// an active span, the seal is recorded as a "window.seal" child
// (buckets sealed and reports frozen as attrs) and the expiry as a
// "window.expire" child (buckets expired). No-op advances record
// nothing.
func (r *Ring) AdvanceContext(ctx context.Context, now time.Time) (rotated, expired int, err error) {
	if r.buckets == 0 {
		return 0, 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	elapsed := now.Sub(r.curStart)
	if elapsed < r.opts.Bucket {
		return 0, 0, nil
	}
	steps := uint64(elapsed / r.opts.Bucket)
	liveBefore := int64(r.cur.Load().N())
	_, seal := trace.StartSpan(ctx, "window.seal")
	// Only the first boundary can seal reports; the slots after it are
	// empty, so the grid just moves past them. A gap longer than the
	// window expires the bucket sealed here along with everything else.
	if err := r.sealLocked(); err != nil {
		seal.SetAttr("error", err)
		seal.End()
		return 0, 0, err
	}
	r.curSeq += steps - 1
	r.curStart = r.curStart.Add(time.Duration(steps-1) * r.opts.Bucket)
	r.rotated.Add(steps)
	rotated = int(min(steps, r.buckets))
	seal.SetAttr("buckets", rotated)
	seal.SetAttr("reports_frozen", liveBefore-int64(r.cur.Load().N()))
	seal.End()
	_, exp := trace.StartSpan(ctx, "window.expire")
	for len(r.sealed) > 0 && r.sealed[0].Slot+r.buckets <= r.curSeq {
		r.sealedN.Add(-int64(r.sealed[0].Agg.N()))
		r.sealed[0] = nil
		r.sealed = r.sealed[1:]
		expired++
	}
	r.expired.Add(uint64(expired))
	exp.SetAttr("buckets", expired)
	exp.End()
	r.ver.Add(1)
	return rotated, expired, nil
}

// sealLocked closes the live bucket's time slot. A non-empty bucket is
// snapshotted once and frozen; an empty slot just advances the
// sequence, keeping the same live aggregator.
func (r *Ring) sealLocked() error {
	live := r.cur.Load()
	if live.N() > 0 {
		snap, err := live.Snapshot()
		if err != nil {
			return fmt.Errorf("window: sealing bucket %d: %w", r.curSeq, err)
		}
		r.sealed = append(r.sealed, &Bucket{Slot: r.curSeq, Agg: snap})
		r.sealedN.Add(int64(snap.N()))
		r.cur.Store(core.NewSharded(r.p, r.opts.Shards))
	}
	r.curSeq++
	r.curStart = r.curStart.Add(r.opts.Bucket)
	return nil
}

// Layout returns the ring's durable shape. The listed buckets are
// immutable and shared with the ring.
func (r *Ring) Layout() Layout {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Layout{Sealed: append([]*Bucket(nil), r.sealed...), LiveSlot: r.curSeq, LiveStart: r.curStart}
}

// Restore rebuilds the ring from a recovered layout and live bucket
// state; call before serving, ahead of the first Advance. A layout
// without a position (a data dir written by a cumulative node, or by a
// build that did not persist buckets) keeps the ring's own anchor, so
// everything recovered is live. Buckets that had already slid out of
// the window are left out. The cumulative ring refuses a layout with
// sealed buckets or a position: serving only its live bucket would drop
// the sealed reports. The ring takes ownership of the states.
func (r *Ring) Restore(l Layout, live core.Aggregator) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buckets == 0 && (len(l.Sealed) > 0 || !l.LiveStart.IsZero()) {
		return errors.New("window: the data dir was written by a windowed node; reopen it with the -window and -bucket it was written with")
	}
	if !l.LiveStart.IsZero() {
		r.curSeq, r.curStart = l.LiveSlot, l.LiveStart
	}
	if n := len(l.Sealed); n > 0 && l.Sealed[n-1].Slot >= r.curSeq {
		// The newest bucket's position was lost with its file; the grid
		// moves on to the slot after it.
		steps := l.Sealed[n-1].Slot + 1 - r.curSeq
		r.curSeq += steps
		r.curStart = r.curStart.Add(time.Duration(steps) * r.opts.Bucket)
	}
	for _, b := range l.Sealed {
		if b.Slot < r.curSeq && b.Slot+r.buckets > r.curSeq {
			r.sealed = append(r.sealed, b)
			r.sealedN.Add(int64(b.Agg.N()))
			r.restored, r.restoredSlot = true, b.Slot
		}
	}
	if live != nil && live.N() > 0 {
		cur := r.cur.Load()
		if err := cur.Merge(live); err != nil {
			return fmt.Errorf("window: restoring the live bucket: %w", err)
		}
		r.restored, r.restoredSlot, r.restoredLive = true, r.curSeq, cur.AppendParts(nil)[0].Key
	}
	r.ver.Add(1)
	return nil
}

// LiveSnapshot cuts a private aggregator holding the live bucket only:
// what a store snapshots, since a windowed node persists each sealed
// bucket once and the cumulative ring's live bucket is all it holds.
func (r *Ring) LiveSnapshot() (core.Aggregator, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur.Load().Snapshot()
}

// Snapshot cuts a private aggregator holding the whole window: the
// sealed buckets merged with a live-bucket snapshot.
func (r *Ring) Snapshot() (core.Aggregator, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out, err := r.cur.Load().Snapshot()
	if err != nil {
		return nil, fmt.Errorf("window: snapshot: %w", err)
	}
	for _, b := range r.sealed {
		if err := out.Merge(b.Agg); err != nil {
			return nil, fmt.Errorf("window: snapshot: %w", err)
		}
	}
	return out, nil
}

// AppendParts appends the window's parts to dst and returns the extended
// slice, for a core.FoldArena to fold: each sealed bucket as one part,
// then the live bucket's shards (core.ShardedAggregator.AppendParts). A
// sealed bucket never changes, so it folds once when sealed and once
// when it expires; a live shard refolds only when its version moved. A
// seal replaces the live aggregator, so a rotation drops the old shard
// keys and adds new ones: no key is ever folded under two contents. The
// parts are listed under the read lock and may be folded after it:
// sealed buckets are immutable, and a live aggregator sealed meanwhile
// takes no more writes.
func (r *Ring) AppendParts(dst []core.Part) []core.Part {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, b := range r.sealed {
		dst = append(dst, core.Part{Key: b, Agg: func(core.Aggregator) (core.Aggregator, error) { return b.Agg, nil }})
	}
	return r.cur.Load().AppendParts(dst)
}

// FromRecovery reports whether parts, a list AppendParts returned,
// holds reports Restore recovered: a restored sealed bucket, the live
// bucket restored into, or that bucket sealed. Buckets expire oldest
// first, so once the window slides past the newest of them, no later
// capture holds any.
func (r *Ring) FromRecovery(parts []core.Part) bool {
	if !r.restored {
		return false
	}
	for _, p := range parts {
		if b, ok := p.Key.(*Bucket); ok && b.Slot <= r.restoredSlot || p.Key == r.restoredLive {
			return true
		}
	}
	return false
}

// Status is a point-in-time description of the ring for /status and
// /view/status reporting.
type Status struct {
	Window        time.Duration
	Bucket        time.Duration
	Buckets       int // window capacity in buckets, including the live one
	SealedBuckets int // retained non-empty sealed buckets
	SealedN       int
	LiveN         int
	Rotations     uint64 // bucket boundaries crossed since start
	Expired       uint64 // buckets retired from the window since start
}

// Status reports the ring's current shape.
func (r *Ring) Status() Status {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Status{
		Window:        r.opts.Window,
		Bucket:        r.opts.Bucket,
		Buckets:       int(r.buckets),
		SealedBuckets: len(r.sealed),
		SealedN:       int(r.sealedN.Load()),
		LiveN:         r.cur.Load().N(),
		Rotations:     r.rotated.Load(),
		Expired:       r.expired.Load(),
	}
}
