package view

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/consistency"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/trace"
)

// The build pipeline, the only one: Build and every Engine epoch run
// builder.build. A build's work splits into a *linear* stage — the
// aggregated counter sums every estimator is a normalization of — and a
// *nonlinear* stage (normalize by n, cross-marginal consistency, simplex
// projection, sub-k cube) that must re-run per epoch. The linear stage
// is the aggregator handed to build: a snapshot for Build, for the
// engine the state of a core.FoldArena it advances by folding the
// source's moved parts (shards, window buckets, peer components), so its
// cost tracks what changed. The folds are
// integer-exact and the nonlinear stage is a deterministic function of
// the counters, so both give the same view bit for bit. The nonlinear
// stage runs over reusable reconstruction arenas, so the steady-state
// refresh allocates only the immutable published view. buildPlan
// memoizes everything about the (d, k) collection that is identical
// across epochs: mask lists, the mask->table position map, and the
// consistency plan — the one overlap structure, which both the sweep and
// the sub-k cube read.

// buildPlan is the per-(d,k) epoch-invariant build structure. Immutable
// and shared: one plan serves every engine (and every published view's
// position lookups) of a deployment shape for the process lifetime.
type buildPlan struct {
	kway []uint64 // the C(d,k) collection masks (shared, read-only)
	sub  []uint64 // the sub-k cube masks, |beta| in [1, k-1]
	pos  map[uint64]int
	cons *consistency.Plan
}

var buildPlans sync.Map // uint64(d)<<8 | uint64(k) -> *buildPlan

// planFor returns the memoized build plan of a deployment shape.
func planFor(cfg core.Config) (*buildPlan, error) {
	key := uint64(cfg.D)<<8 | uint64(cfg.K)
	if p, ok := buildPlans.Load(key); ok {
		return p.(*buildPlan), nil
	}
	kway := core.KWayMasks(cfg.D, cfg.K)
	cons, err := consistency.NewPlan(kway)
	if err != nil {
		return nil, err
	}
	sub := bitops.MasksWithAtMostK(cfg.D, 1, cfg.K-1)
	p := &buildPlan{
		kway: kway,
		sub:  sub,
		pos:  make(map[uint64]int, len(kway)+len(sub)),
		cons: cons,
	}
	for i, m := range kway {
		p.pos[m] = i
	}
	for i, m := range sub {
		p.pos[m] = len(kway) + i
	}
	actual, _ := buildPlans.LoadOrStore(key, p)
	return actual.(*buildPlan), nil
}

// builder owns the reusable reconstruction arenas of one engine (or of
// one Build call): the k-way table arena, the sub-cube arena, the
// evidence vector, and the marginalization scratch. A builder is
// single-threaded (the engine serializes builds); publishing copies the
// finished values into a fresh immutable View, so readers of older
// epochs are never touched by the next build reusing the arena.
type builder struct {
	p    core.Protocol
	cfg  core.Config
	opts Options
	plan *buildPlan

	arena   *core.KWayArena
	weights []float64         // per-kway-table evidence of the current build
	sub     []*marginal.Table // sub-cube arena tables (slab-backed)
	scratch []float64         // marginalization scratch, max 2^(k-1)
	// consBefore checkpoints the raw k-way cells before the nonlinear
	// stage so diagnostics can report the L1 mass consistency +
	// projection moved; reused across epochs.
	consBefore []float64
}

func newBuilder(p core.Protocol, opts Options) (*builder, error) {
	cfg := p.Config()
	plan, err := planFor(cfg)
	if err != nil {
		return nil, err
	}
	arena, err := core.NewKWayArena(cfg)
	if err != nil {
		return nil, err
	}
	b := &builder{
		p:       p,
		cfg:     cfg,
		opts:    opts,
		plan:    plan,
		arena:   arena,
		weights: make([]float64, len(plan.kway)),
		sub:     make([]*marginal.Table, len(plan.sub)),
		scratch: make([]float64, 1<<uint(cfg.K-1)),
	}
	var cells int
	for _, m := range plan.sub {
		cells += 1 << uint(bitops.OnesCount(m))
	}
	slab := make([]float64, cells)
	tabs := make([]marginal.Table, len(plan.sub))
	off := 0
	for i, m := range plan.sub {
		size := 1 << uint(bitops.OnesCount(m))
		tabs[i] = marginal.Table{Beta: m, Cells: slab[off : off+size]}
		b.sub[i] = &tabs[i]
		off += size
	}
	return b, nil
}

// build reconstructs the k-way collection from the counter state,
// runs the nonlinear stage, and publishes a fresh immutable View. When
// ctx carries an active span, the reconstruction ("view.linear"),
// consistency sweep ("view.consistency"), and projection + sub-cube
// materialization ("view.nonlinear") are recorded as children.
func (b *builder) build(ctx context.Context, state core.Aggregator) (*View, error) {
	start := time.Now()
	_, linSpan := trace.StartSpan(ctx, "view.linear")
	if err := core.AllKWayTablesInto(state, b.arena, true); err != nil {
		linSpan.End()
		return nil, fmt.Errorf("view: %w", err)
	}
	linSpan.SetAttr("tables", len(b.arena.Tables))
	linSpan.End()
	n := state.N()
	for i, u := range b.arena.Users {
		b.weights[i] = float64(u)
	}
	b.consBefore = consistencyCheckpoint(b.consBefore, b.arena.Tables, len(b.arena.Tables))
	if b.opts.ConsistencyRounds >= 0 && len(b.arena.Tables) > 1 && n > 0 {
		_, consSpan := trace.StartSpan(ctx, "view.consistency")
		if err := b.plan.cons.Enforce(b.arena.Tables, b.weights, consistency.Options{
			Rounds: b.opts.ConsistencyRounds,
		}); err != nil {
			consSpan.End()
			return nil, fmt.Errorf("view: enforcing consistency: %w", err)
		}
		consSpan.End()
	}
	_, nlSpan := trace.StartSpan(ctx, "view.nonlinear")
	defer nlSpan.End()
	if !b.opts.RawCells {
		for _, t := range b.arena.Tables {
			t.ProjectToSimplex()
		}
	}
	// Materialize the sub-k cube from the post-processed collection:
	// every |beta| < k marginal is the evidence-weighted average of the
	// k-way tables containing beta, reduced in mask order; zero total
	// evidence yields the uniform table. Doing it once here keeps the
	// read path at a position lookup for every in-contract mask.
	for si, sb := range b.plan.sub {
		out := b.sub[si].Cells
		if b.plan.cons.Consensus(sb, b.arena.Tables, b.weights, out, b.scratch[:len(out)]) == 0 {
			u := 1 / float64(len(out))
			for c := range out {
				out[c] = u
			}
		}
	}
	return b.publish(n, start), nil
}

// publish freezes the arena's finished values into a fresh immutable
// View: one table-header slab, one cell slab, and the shared position
// map. These are the only per-epoch allocations of an engine refresh —
// the arenas themselves never escape, so a reader holding any older
// epoch is unaffected by later builds.
func (b *builder) publish(n int, start time.Time) *View {
	total := len(b.arena.Tables) + len(b.sub)
	cells := len(b.arena.Tables) << uint(b.cfg.K)
	for _, t := range b.sub {
		cells += len(t.Cells)
	}
	slab := make([]float64, cells)
	headers := make([]marginal.Table, total)
	ptrs := make([]*marginal.Table, total)
	off := 0
	for i, t := range b.arena.Tables {
		dst := slab[off : off+len(t.Cells)]
		copy(dst, t.Cells)
		headers[i] = marginal.Table{Beta: t.Beta, Cells: dst}
		ptrs[i] = &headers[i]
		off += len(t.Cells)
	}
	for i, t := range b.sub {
		dst := slab[off : off+len(t.Cells)]
		copy(dst, t.Cells)
		headers[len(b.arena.Tables)+i] = marginal.Table{Beta: t.Beta, Cells: dst}
		ptrs[len(b.arena.Tables)+i] = &headers[len(b.arena.Tables)+i]
		off += len(t.Cells)
	}
	v := &View{
		N:        n,
		Protocol: b.p.Name(),
		cfg:      b.cfg,
		kWay:     len(b.arena.Tables),
		tables:   ptrs,
		pos:      b.plan.pos,
	}
	v.Diag.ConsistencyL1 = consistencyL1(b.consBefore, v.tables, v.kWay)
	v.fillTVBound()
	v.BuildDuration = time.Since(start)
	v.BuiltAt = time.Now()
	return v
}
