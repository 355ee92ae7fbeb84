package view

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/loop"
	"ldpmarginals/internal/trace"
)

// Source is what the engine refreshes from: a live aggregation pipeline
// that names the parts of its state, which the engine folds through a
// core.FoldArena of its own, and whose report count it polls without
// blocking. An ingesting node's source is always a window.Ring (the
// cumulative release is the ring that never seals), a coordinator's is
// its fleet; core.ShardedAggregator satisfies it too.
type Source interface {
	// N returns the current report count; must be cheap (lock-free).
	N() int
	// AppendParts appends the source's current parts to dst and returns
	// the extended slice: one per contribution (a shard, a window bucket,
	// a peer component), keyed and version-labelled so the arena refolds
	// only those whose label moved.
	AppendParts(dst []core.Part) []core.Part
}

// Component describes one constituent of a composed source's snapshot:
// a cluster peer (or the local pipeline) whose state was folded into the
// epoch. The engine records the composition on every refresh, so a
// /view/status endpoint can report per-peer staleness — which peer's
// reports the serving epoch actually contains — rather than only the
// fleet total.
type Component struct {
	// ID names the component: a peer's node id, or "local".
	ID string
	// URL is the peer's configured base URL (empty for the local
	// pipeline).
	URL string
	// N is the component's report count inside the snapshot.
	N int
	// Version is the component's state version inside the snapshot.
	Version uint64
	// Parts is how many named state components the constituent
	// decomposes into on the wire (1 for an edge, pass-through
	// constituents of a mid-tier coordinator); 0 when the source doesn't
	// track a decomposition.
	Parts int
}

// Composed is optionally implemented by a Source assembled from multiple
// constituents (e.g. a coordinator's fleet of edge states). Composition
// must describe exactly the constituents of the most recent
// AppendParts call; the engine copies it into the published View
// right after capturing, under the same build lock.
type Composed interface {
	Composition() []Component
}

// Recoverable is optionally implemented by a Source seeded from durable
// state: FromRecovery reports whether parts, a list its AppendParts
// returned, holds reports restored from that state. The engine records
// the answer for the parts it captured in the published View.
type Recoverable interface {
	FromRecovery(parts []core.Part) bool
}

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// RefreshInterval rebuilds the view every RefreshInterval of wall
	// time; <= 0 means the view only advances on explicit Refresh calls
	// (e.g. a POST /refresh endpoint).
	RefreshInterval time.Duration
	// Tracer, when set, roots a "view.refresh" trace for every
	// interval-driven background refresh (request-driven refreshes join
	// their request's trace through RefreshContext instead). Nil
	// disables background-refresh tracing.
	Tracer *trace.Tracer
}

// Engine owns the materialized view of one deployment: it captures the
// source's state into its arena, builds a View, and publishes it through
// an atomic pointer.
// Readers call Current and work with an immutable epoch; they never take
// a lock and never observe a partially built view. Builds (manual or
// interval-driven) are serialized, so at most one reconstruction runs
// at a time and ingestion is never stalled by more than the snapshot's
// one-shard-at-a-time merge.
type Engine struct {
	src  Source
	opts EngineOptions

	cur atomic.Pointer[View]

	mu    sync.Mutex // serializes builds and guards epoch + incremental state
	epoch int64      // last assigned build number; read the published View's Epoch instead

	// Build state, all guarded by mu.
	arena *core.FoldArena
	parts []core.Part // reused by every capture; zeroed between them
	bld   *builder

	incBuilds  atomic.Int64
	fullBuilds atomic.Int64
	ins        *viewInstruments

	stop func() // stops the refresh loop; a no-op under manual refresh
}

// EngineStats counts the engine's builds by kind, for status endpoints.
type EngineStats struct {
	// IncrementalBuilds is the number of epochs whose counter state was
	// reached by folding deltas into the state the engine held.
	IncrementalBuilds int64
	// FullBuilds is the number of epochs whose counter state was captured
	// from scratch: the initial epoch and an epoch after a failed refresh.
	FullBuilds int64
}

// Stats returns the engine's build counters. Lock-free.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		IncrementalBuilds: e.incBuilds.Load(),
		FullBuilds:        e.fullBuilds.Load(),
	}
}

// NewEngine builds epoch 1 synchronously (so Current never returns nil)
// and, given a RefreshInterval, starts the background refresh loop.
// Close the engine to stop that loop. The protocol must fold
// (core.CheckFolds): every epoch after the first advances the engine's
// counter state by a delta fold.
func NewEngine(src Source, p core.Protocol, opts EngineOptions) (*Engine, error) {
	if err := core.CheckFolds(p); err != nil {
		return nil, err
	}
	bld, err := newBuilder(p, Options{})
	if err != nil {
		return nil, fmt.Errorf("view: preparing builder: %w", err)
	}
	e := &Engine{src: src, opts: opts, bld: bld, arena: core.NewFoldArena(p.NewAggregator), stop: func() {}, ins: newViewInstruments()}
	if _, err := e.Refresh(); err != nil {
		return nil, fmt.Errorf("view: building initial epoch: %w", err)
	}
	if opts.RefreshInterval > 0 {
		// The loop wakes at an eighth of the interval, so a refresh lands
		// within ~RefreshInterval/8 of its due time rather than slipping a
		// whole period when a tick narrowly precedes the deadline.
		e.stop = loop.Every(max(opts.RefreshInterval/8, time.Millisecond), e.refreshIfDue)
	}
	return e, nil
}

// Current returns the latest published view. Lock-free; never nil.
func (e *Engine) Current() *View { return e.cur.Load() }

// Epoch returns the latest published epoch number. Lock-free. It is
// read from the published view itself — never from the internal build
// counter, which runs ahead of publication for the instant between
// assigning a new view's number and storing it — so Epoch never reports
// an epoch a concurrent Current call could not obtain.
func (e *Engine) Epoch() int64 { return e.Current().Epoch }

// Refresh snapshots the source, builds the next epoch, and publishes it,
// returning the new view. Concurrent calls are serialized and coalesced
// single-flight style: a caller that waited out another build returns
// the epoch published during its wait when that epoch's snapshot was
// taken after the caller asked — it already reflects everything the
// caller could have ingested beforehand, so rebuilding would burn a full
// reconstruction on an indistinguishable answer. On error the previous
// view stays published and keeps serving.
//
// Every refresh after the first is incremental: the engine folds only
// the source components that changed since the last epoch into the
// counter state it holds and re-runs the build over reusable arenas. The
// folds are integer-exact, so every epoch is bit-identical to a
// standalone Build over a merge of the same state; only the first epoch
// and one following a failed refresh capture the whole source from
// scratch.
func (e *Engine) Refresh() (*View, error) {
	return e.RefreshContext(context.Background())
}

// RefreshContext is Refresh with trace propagation: when ctx carries
// an active span, the whole build is recorded as a "view.build" child
// — covering snapshot acquisition and reconstruction, the same total
// that BuildDuration and the build histograms report — with stage
// children (view.snapshot or view.delta_fold, view.linear,
// view.consistency, view.nonlinear) and the epoch's fold counts and
// accuracy diagnostics as attributes.
func (e *Engine) RefreshContext(ctx context.Context) (*View, error) {
	entry := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.cur.Load(); cur != nil && cur.snapshotAt.After(entry) {
		return cur, nil
	}
	snapshotAt := time.Now()
	ctx, span := trace.StartSpan(ctx, "view.build")
	v, err := e.buildNext(ctx)
	if err != nil {
		span.SetAttr("error", err)
		span.End()
		return nil, err
	}
	if v == nil {
		// Zero-delta fast path: nothing changed since the serving epoch
		// was built, so the previous view already is the rebuild's
		// answer. The epoch does not advance.
		span.SetAttr("zero_delta", true)
		span.End()
		return e.cur.Load(), nil
	}
	// Inter-epoch drift: how far each k-way marginal moved since the
	// epoch currently serving. Compared against Diag.TheoreticalTV
	// this is the anomaly signal — movement beyond the noise floor
	// means the underlying distribution changed.
	if prev := e.cur.Load(); prev != nil {
		v.Diag.DriftMaxTV, v.Diag.DriftMeanTV = marginalDrift(prev, v)
		v.Diag.DriftBaseEpoch = prev.Epoch
	}
	v.snapshotAt = snapshotAt
	e.epoch++
	v.Epoch = e.epoch
	span.SetAttr("epoch", v.Epoch)
	span.SetAttr("n", v.N)
	span.SetAttr("incremental", v.Incremental)
	span.SetAttr("folded_components", v.FoldedComponents)
	span.SetAttr("consistency_l1", v.Diag.ConsistencyL1)
	span.SetAttr("drift_max_tv", v.Diag.DriftMaxTV)
	if v.Diag.TVBoundErr == "" {
		span.SetAttr("theoretical_tv", v.Diag.TheoreticalTV)
	}
	span.End()
	e.cur.Store(v)
	return v, nil
}

// buildNext captures the source's counter state into the arena — a delta
// fold of the parts whose label moved, or every part from scratch while
// the arena is unprimed (the first epoch and after a failed refresh) —
// and builds the next view from it. It returns nil when nothing moved
// since the serving epoch. Called under e.mu.
//
// The published BuildDuration (and the build histograms) cover the
// whole operation — state capture plus reconstruction, exactly the
// root "view.build" span — so /view/status, the metrics, and the
// traces all report the same number; SnapshotDuration remains as the
// capture-stage breakdown.
func (e *Engine) buildNext(ctx context.Context) (*View, error) {
	incremental := e.arena.Primed()
	stage := "view.snapshot"
	if incremental {
		stage = "view.delta_fold"
	}
	start := time.Now()
	_, span := trace.StartSpan(ctx, stage)
	e.parts = e.src.AppendParts(e.parts[:0])
	fromRecovery := false
	if r, ok := e.src.(Recoverable); ok {
		fromRecovery = r.FromRecovery(e.parts)
	}
	folded, err := e.arena.Sync(e.parts)
	clear(e.parts) // the arena holds what it folded; drop the rest
	state := e.arena.State()
	snapDur := time.Since(start)
	if err != nil {
		span.SetAttr("error", err)
		span.End()
		// A failed Sync has un-primed the arena: the next refresh
		// recaptures from scratch.
		return nil, fmt.Errorf("view: capturing source state: %w", err)
	}
	span.SetAttr("folded_components", folded)
	span.End()
	if incremental && folded == 0 {
		// No component moved since the last successful build: the
		// serving epoch was built from exactly this state.
		return nil, nil
	}
	// Capture the state's composition before the build: the source pins
	// it to its last capture, and builds are serialized under e.mu, so
	// this is exactly the epoch's makeup.
	comp := e.composition()
	v, err := e.bld.build(ctx, state)
	if err != nil {
		// The arena holds state no epoch shows; recapturing keeps the
		// zero-delta return above from skipping the build that would.
		e.arena.Reset()
		return nil, err
	}
	v.BuildDuration = time.Since(start)
	if incremental {
		e.ins.buildInc.Observe(v.BuildDuration.Seconds())
		e.incBuilds.Add(1)
	} else {
		e.ins.buildFull.Observe(v.BuildDuration.Seconds())
		e.fullBuilds.Add(1)
	}
	e.ins.snapshotDur.Observe(snapDur.Seconds())
	v.Incremental = incremental
	v.Components = comp
	v.FromRecovery = fromRecovery
	v.SnapshotDuration = snapDur
	v.FoldedComponents = folded
	return v, nil
}

func (e *Engine) composition() []Component {
	if c, ok := e.src.(Composed); ok {
		return c.Composition()
	}
	return nil
}

// Close stops the automatic refresh loop (if any) and waits for it to
// exit. The last published view keeps serving; Close is idempotent.
func (e *Engine) Close() { e.stop() }

// refreshIfDue is one tick of the refresh loop. Due-ness is measured
// from the published view's build time, so a manual Refresh resets the
// interval cadence instead of racing it into a redundant back-to-back
// rebuild. Build errors are swallowed (the previous epoch
// keeps serving and the next tick retries); deployments that need
// visibility poll /view/status staleness instead.
func (e *Engine) refreshIfDue() {
	if e.Current().Age() < e.opts.RefreshInterval {
		return
	}
	// Interval-driven refreshes have no request to join, so root their
	// own trace; a refresh that didn't advance the epoch (zero-delta) is
	// discarded rather than flooding the ring on every interval tick of
	// an idle deployment.
	ctx, root := e.opts.Tracer.StartRoot(context.Background(), "view.refresh")
	before := e.Epoch()
	v, err := e.RefreshContext(ctx)
	if err == nil && v != nil && v.Epoch == before {
		root.Discard()
	} else {
		root.End()
	}
}
