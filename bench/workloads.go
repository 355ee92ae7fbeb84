package main

import (
	"math"

	"ldpmarginals/internal/core"
)

// refSeconds is the -seconds value the per-round work constants below
// are sized for: at -seconds refSeconds the timed rounds of every
// workload last about that long on the 2-core reference box. Other
// values scale the constants linearly, so a run is always a fixed
// amount of work, never a fixed amount of time.
const refSeconds = 20

// fullRounds is how many times a run repeats all of a workload's phases,
// each time on a deployment set up from nothing for that round. Every
// timed value is the median of its per-round values.
const fullRounds = 7

// workload is one deployment shape plus the fixed work a round drives
// through it.
type workload struct {
	name string
	why  string

	kind core.Kind
	d, k int
	// shards is each ingesting node's aggregation width, explicit so the
	// state layout and wire bytes do not depend on the host.
	shards int
	// edges is the number of RoleEdge nodes behind the coordinator; 0
	// deploys one RoleSingle node that serves its own view, with a
	// one-peer coordinator attached for the pull phases.
	edges int
	// durable opens a store (fsync interval) under the ingest node.
	durable bool
	// mixed runs the query phase beside the ingest phase instead of
	// after it: connection A posts batches while connection B queries,
	// and both rates come from A's span.
	mixed bool

	// bodies x batch reports are generated; every body is posted once as
	// preload, which is what makes a set-up last most of a second.
	bodies, batch int

	// Per-round fixed work at -seconds refSeconds. The phases a workload
	// was built for get most of its round.
	ingestPosts int // /report/batch posts
	queryPosts  int // /query posts (mixed: as many as fit in the ingest span)
	freshCycles int // post one body, POST /pull, POST /refresh
	fullCycles  int // fresh coordinator, POST /pull

	// scale is the factor the per-round work above was multiplied by,
	// and rounds how many rounds a run makes; scaled sets both.
	scale  float64
	rounds int
}

// minFreshCycles keeps a round's freshness cycles at the engine's
// default full-rebuild cadence (64) at any scale, so every round times
// at least one cold rebuild.
const minFreshCycles = 64

var workloads = []workload{
	{
		name: "ingest-narrow",
		why:  "InpHT d=8 k=2, 256-report batches: decode, admission and shard consume do the work; 28 four-cell tables make view and wire work vanish",
		kind: core.InpHT, d: 8, k: 2, shards: 2,
		bodies: 12288, batch: 256,
		ingestPosts: 32000, queryPosts: 7000, freshCycles: 500, fullCycles: 200,
	},
	{
		name: "durable-mixed",
		why:  "MargPS d=8 k=2, 16-report batches through the WAL with a reader beside the writer: per-request fixed cost, store append, reader/writer contention",
		kind: core.MargPS, d: 8, k: 2, shards: 2, durable: true, mixed: true,
		bodies: 10240, batch: 16,
		ingestPosts: 16000, freshCycles: 400, fullCycles: 150,
	},
	{
		name: "view-wide",
		why:  "InpPS d=16 k=3, 560 eight-cell tables over 2^16 counters: refresh is WHT + k-way reconstruction + consistency, which the narrow workloads bypass",
		kind: core.InpPS, d: 16, k: 3, shards: 4,
		bodies: 4096, batch: 1024,
		ingestPosts: 6000, queryPosts: 9000, freshCycles: 100, fullCycles: 16,
	},
	{
		name: "fleet-pull",
		why:  "two 8-shard InpPS d=16 edges under a coordinator: export, flate, wire, decode and fold of peer states, and a view folded from peers, not local shards",
		kind: core.InpPS, d: 16, k: 3, shards: 8, edges: 2,
		bodies: 4096, batch: 1024,
		ingestPosts: 5000, queryPosts: 7000, freshCycles: 100, fullCycles: 16,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled returns the workload with its per-round work multiplied by f.
func (w workload) scaled(f float64) workload {
	mul := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(floor, int(math.Round(float64(n)*f)))
	}
	w.ingestPosts = mul(w.ingestPosts, 8)
	w.queryPosts = mul(w.queryPosts, 8)
	w.freshCycles = mul(w.freshCycles, minFreshCycles)
	w.fullCycles = mul(w.fullCycles, 2)
	w.scale, w.rounds = f, fullRounds
	return w
}

// e2eMetric declares one end-to-end metric: every workload emits every
// one of them. bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression; it is
// mirrored in BENCHMARK.json.
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

// maxBound is the widest bound an end-to-end metric may carry, and
// maxSetupBound the one setup_s may: a cell that cannot hold its bound
// is demoted to the per-layer ledger, never widened.
const (
	maxBound      = 0.15
	maxSetupBound = 0.20
)

// endToEnd are the gated metrics. The issue's six timed cells
// (ingest_reports_per_s, query_answers_per_s, refresh_p50_ms,
// rebuild_p50_ms, pull_delta_p50_ms, pull_full_p50_ms) and peak_rss_mb
// are not among them: as medians of seven rounds with the issue's 10-15%
// bounds they failed its own acceptance test on the reference host, were
// lengthened once, failed again, and so moved to the per-layer ledger
// (server.<name>, process.peak_rss_mb) under its demotion rule. README.md
// has every cell's measured spread. Every run still measures them and
// prints them, ungated, in its human table.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.20},
	{"pull_delta_wire_bytes", "bytes", "lower", 0.02},
	{"pull_full_wire_bytes", "bytes", "lower", 0.02},
	{"tv_error", "TV", "lower", 0.01},
}

// bounds maps an end-to-end metric to its bound.
var bounds = func() map[string]float64 {
	m := make(map[string]float64, len(endToEnd))
	for _, e := range endToEnd {
		m[e.name] = e.bound
	}
	return m
}()
