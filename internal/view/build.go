package view

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/consistency"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/hadamard"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/trace"
	"ldpmarginals/internal/vec"
)

// The build pipeline, the only one: Build and every Engine epoch run
// builder.build. A build's work splits into a *linear* stage — the
// aggregated counter sums every estimator is a normalization of — and a
// *nonlinear* stage that must re-run per epoch. The linear stage is the
// aggregator handed to build: a snapshot for Build, for the engine the
// state of a core.FoldArena it advances by folding the source's moved
// parts (shards, window buckets, peer components), so its cost tracks
// what changed. The nonlinear stage normalizes by n, then
// consistency.Plan.Agree alternates two projections until they agree:
// the closed-form consistency projection, which sets every shared
// Walsh–Hadamard coefficient to its evidence-weighted mean, and the
// simplex projection of each table, with each consistent point pushed
// past the projection by an extrapolated step. It stops when a
// consistency projection moves no coefficient by more than 1e-9, or
// after 128 rounds, and always ends on the simplex step. The sub-k
// cube is then the inverse transform of the final tables' weighted
// coefficient means, projected onto the simplex. The folds are
// integer-exact and the nonlinear stage is a deterministic function of
// the counters, with no state carried from the previous epoch, so both
// give the same view bit for bit. The nonlinear stage runs over
// reusable arenas, so the steady-state refresh allocates only the
// immutable published view. buildPlan memoizes everything about the
// (d, k) collection that is identical across epochs: mask lists, the
// mask->table position map, the consistency plan and the cube's
// coefficient ids.

// buildPlan is the per-(d,k) epoch-invariant build structure. Immutable
// and shared: one plan serves every engine (and every published view's
// position lookups) of a deployment shape for the process lifetime.
type buildPlan struct {
	kway []uint64 // the C(d,k) collection masks (shared, read-only)
	sub  []uint64 // the sub-k cube masks, |beta| in [1, k-1]
	pos  map[uint64]int
	cons *consistency.Plan
	// cube[i] lists the coefficient ids of sub[i]'s sub-masks in
	// ascending order; nil when d == k, where no two tables share
	// anything and sub[i] is a marginal of the one k-way table.
	cube [][]int
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
	p.cube = make([][]int, len(sub))
	if len(kway) > 1 {
		for i, m := range sub {
			// A k-way superset: m and the lowest attributes outside it.
			super := m
			for a := 0; bitops.OnesCount(super) < cfg.K; a++ {
				super |= 1 << a
			}
			for a := uint64(0); ; a = (a - m) & m {
				id, ok := cons.ID(p.pos[super], a)
				if !ok {
					return nil, fmt.Errorf("view: sub-marginal %b is not shared", a)
				}
				p.cube[i] = append(p.cube[i], id)
				if a == m {
					break
				}
			}
		}
	}
	actual, _ := buildPlans.LoadOrStore(key, p)
	return actual.(*buildPlan), nil
}

// builder owns the reusable reconstruction arenas of one engine (or of
// one Build call): the k-way table arena, the sub-cube arena, the
// evidence vector, and the consistency plan's scratch. A builder is
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
	cons    *consistency.Scratch
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
		cons:    plan.cons.NewScratch(),
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
// ctx carries an active span, the reconstruction ("view.linear"), the
// alternating projections ("view.consistency") and the sub-cube
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
	tables := b.arena.Tables
	b.consBefore = consistencyCheckpoint(b.consBefore, tables, len(tables))
	_, consSpan := trace.StartSpan(ctx, "view.consistency")
	rounds := 0
	if !b.opts.RawCells {
		rounds = b.plan.cons.Agree(tables, b.weights, b.cons)
	}
	b.plan.cons.Means(tables, b.weights, b.cons) // for the diagnostic and the cube
	disagreement := b.plan.cons.MaxDisagreement(b.cons)
	consSpan.SetAttr("projection_rounds", rounds)
	consSpan.SetAttr("max_disagreement", disagreement)
	consSpan.End()

	// Materialize the sub-k cube, so the read path is a position lookup
	// for every in-contract mask: each |beta| < k marginal is the inverse
	// transform of the tables' evidence-weighted coefficient means over
	// beta's sub-masks; zero evidence yields the uniform table.
	_, nlSpan := trace.StartSpan(ctx, "view.nonlinear")
	defer nlSpan.End()
	for si, sb := range b.plan.sub {
		out := b.sub[si].Cells
		ids := b.plan.cube[si]
		switch {
		case ids == nil && b.weights[0] > 0:
			clear(out)
			local := bitops.Compress(sb, tables[0].Beta)
			for c, v := range tables[0].Cells {
				out[bitops.Compress(uint64(c), local)] += v
			}
		case ids == nil || b.cons.Weight[ids[len(ids)-1]] == 0:
			for c := range out {
				out[c] = 1 / float64(len(out))
			}
			continue
		default:
			for c, id := range ids {
				out[c] = b.cons.Mean[id]
			}
			if err := hadamard.InverseWHT(out); err != nil {
				return nil, fmt.Errorf("view: %w", err)
			}
		}
		if !b.opts.RawCells {
			vec.ProjectToSimplex(out)
		}
	}
	v := b.publish(n, start)
	v.Diag.MaxDisagreement, v.Diag.ProjectionRounds = disagreement, rounds
	return v, nil
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
