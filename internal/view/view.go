// Package view materializes the read side of a marginal-release
// deployment. The paper's central promise is that one round of LDP
// reports answers *all* C(d,k) k-way marginals and every conjunction
// workload built on them — so instead of re-running reconstruction on
// every analyst query, a deployment reconstructs the whole collection
// once per epoch and serves every query from the cached result.
//
// Build turns one aggregator snapshot into an immutable View: all C(d,k)
// k-way tables reconstructed, then alternately projected onto the
// consistent collections (overlapping tables agree on shared
// sub-marginals, weighted by their per-marginal evidence) and each onto
// the probability simplex, until the two agree. A View answers any
// marginal with |beta| <= k by marginalizing cached superset tables —
// O(2^k) work per query instead of a full reconstruction — and any
// conjunction by reading one cell of that answer.
//
// Builds are deterministic: a View is a pure function of the counter
// state it was built from, bit for bit, regardless of GOMAXPROCS and of
// how that state was reached — so a cached answer is exactly the answer
// a fresh rebuild of the same epoch would give.
//
// Engine (engine.go) runs the same build (build.go) on request or every
// RefreshInterval, advancing the counter state by delta folds, and
// publishes Views through an atomic pointer, so readers never take a
// lock and never block ingestion.
package view

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/query"
)

// ErrBadQuery tags query-validation failures (empty beta, beta outside
// the attribute domain, |beta| above the deployment's k). HTTP layers
// map errors.Is(err, ErrBadQuery) to 400; anything else is a server
// fault.
var ErrBadQuery = errors.New("invalid marginal query")

// Options tunes Build's post-processing. The zero value is the
// production default: the consistency projection alternated with the
// simplex projection until the tables agree (build.go).
type Options struct {
	// RawCells skips all post-processing of the k-way tables, leaving
	// the unbiased (possibly negative, possibly disagreeing) cell
	// estimates in the view; the sub-k cube is then the inverse
	// transform of their weighted coefficient means, unprojected.
	RawCells bool
}

// View is one immutable materialized epoch: every k-way collection table
// reconstructed from a single snapshot, post-processed, and frozen.
// Views are safe for concurrent use by any number of readers; all
// methods are read-only.
type View struct {
	// Epoch is the 1-based build sequence number assigned by the Engine
	// (0 for standalone Build calls).
	Epoch int64
	// N is the number of reports in the snapshot behind the view.
	N int
	// BuiltAt is the wall-clock completion time of the build.
	BuiltAt time.Time
	// BuildDuration is how long the build took.
	BuildDuration time.Duration
	// SnapshotDuration is how long capturing the source state took (a
	// delta fold on incremental epochs), set by the Engine; zero for
	// standalone Build calls.
	SnapshotDuration time.Duration
	// Incremental reports whether the engine reached this epoch's counter
	// state by folding deltas into the state it already held, rather
	// than capturing the whole source from scratch (the first epoch and an
	// epoch after a failed refresh). The tables do not depend on it.
	Incremental bool
	// FoldedComponents is how many source components (shards, window
	// buckets, or a coordinator's peer components) were folded into this
	// epoch's state: only the changed ones on an incremental build, every
	// component on a from-scratch capture.
	FoldedComponents int
	// Protocol is the deployment's protocol name.
	Protocol string
	// Components describes the constituents of the epoch's snapshot when
	// the engine's source is Composed (a coordinator's fleet of peer
	// states); nil for plain sources.
	Components []Component
	// FromRecovery reports whether the epoch's snapshot holds reports
	// restored from durable state (the engine's source is Recoverable).
	FromRecovery bool
	// Diag is the epoch's accuracy diagnostics (diag.go): the paper's
	// theoretical TV bound at the epoch's parameters, the L1 mass moved
	// by consistency enforcement + projection, and — for engine-built
	// epochs — drift against the previous epoch.
	Diag Diagnostics

	cfg    core.Config
	kWay   int               // count of collection (k-way) tables at the front of tables
	tables []*marginal.Table // C(d,k) k-way tables (mask-ascending), then the sub-k cube
	pos    map[uint64]int    // mask -> position in tables

	// snapshotAt is when the Engine cut the snapshot behind this view
	// (zero for standalone Build calls); Refresh uses it to coalesce
	// concurrent rebuild requests.
	snapshotAt time.Time
}

// Build materializes a view from one aggregator snapshot. The snapshot
// must be private to the caller (e.g. core.ShardedAggregator.Snapshot);
// it is only read. Equal snapshots build bit-identical views, and an
// Engine epoch over the same state is bit-identical too.
func Build(snap core.Aggregator, p core.Protocol, opts Options) (*View, error) {
	b, err := newBuilder(p, opts)
	if err != nil {
		return nil, fmt.Errorf("view: %w", err)
	}
	return b.build(context.Background(), snap)
}

// Config returns the deployment parameters of the view.
func (v *View) Config() core.Config { return v.cfg }

// Tables returns the number of materialized tables: the C(d,k)
// collection tables plus the precomputed sub-k cube.
func (v *View) Tables() int { return len(v.tables) }

// checkBeta validates a queried mask against the deployment, wrapping
// every failure in ErrBadQuery with a message naming the violated limit.
func (v *View) checkBeta(beta uint64) error {
	if beta == 0 {
		return fmt.Errorf("%w: empty attribute mask", ErrBadQuery)
	}
	if beta >= 1<<uint(v.cfg.D) {
		return fmt.Errorf("%w: mask %d is outside the deployment's %d attributes (max %d)",
			ErrBadQuery, beta, v.cfg.D, uint64(1)<<uint(v.cfg.D)-1)
	}
	if k := bitops.OnesCount(beta); k > v.cfg.K {
		return fmt.Errorf("%w: mask has %d attributes but the deployment supports at most k=%d",
			ErrBadQuery, k, v.cfg.K)
	}
	return nil
}

// Marginal answers the marginal over beta (|beta| <= k) from the cached
// tables in O(2^k): every in-contract mask — the k-way collection
// tables and the precomputed sub-k cube alike — is a position lookup
// plus a copy. The returned table is the caller's to mutate. Sub-k
// answers are the inverse transform of the supersets' evidence-weighted
// Walsh–Hadamard coefficient means, computed at build time, so they are
// deterministic per epoch.
func (v *View) Marginal(beta uint64) (*marginal.Table, error) {
	if err := v.checkBeta(beta); err != nil {
		return nil, err
	}
	// checkBeta admits exactly the masks the build positioned.
	return v.tables[v.pos[beta]].Clone(), nil
}

// Estimate is Marginal under the marginal.Estimator interface, so a View
// drops into every consumer an aggregator fits (query evaluation,
// Chow-Liu fitting, chi-squared testing).
func (v *View) Estimate(beta uint64) (*marginal.Table, error) { return v.Marginal(beta) }

// Answer evaluates one conjunction against the view, returning the
// estimated population fraction matching it.
func (v *View) Answer(c query.Conjunction) (float64, error) {
	return query.Evaluate(v, c, v.cfg.D)
}

// Age returns how long ago the view was built, clamped at zero: a
// BuiltAt stamp whose monotonic reading was stripped (serialized views,
// or a Round(0) anywhere upstream) falls back to wall-clock arithmetic,
// and a wall clock stepped backwards would otherwise yield a negative
// age that consumers feed into staleness alerts and refresh decisions.
func (v *View) Age() time.Duration {
	if d := time.Since(v.BuiltAt); d > 0 {
		return d
	}
	return 0
}

// Staleness returns how many reports have arrived since the view was
// built, given the aggregator's current count.
func (v *View) Staleness(currentN int) int {
	if s := currentN - v.N; s > 0 {
		return s
	}
	return 0
}
