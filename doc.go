// Package ldpmarginals is a Go implementation of "Marginal Release Under
// Local Differential Privacy" (Cormode, Kulkarni, Srivastava — SIGMOD
// 2018): protocols that let an untrusted aggregator reconstruct any
// k-way marginal table over d binary attributes from a population of
// users, each of whom releases a single locally-differentially-private
// report.
//
// The package exposes the paper's six protocols (InpRR, InpPS, InpHT,
// MargRR, MargPS, MargHT; a server serves all but InpRR), the evaluated
// baselines (InpEM expectation maximization, InpOLH and InpHTCMS
// frequency oracles), synthetic datasets mirroring the paper's
// evaluation data, and the downstream
// applications: chi-squared association testing and Chow-Liu dependency
// tree fitting. OpenStore opens the durable report store a deployment
// recovers from. Every exported name is used by a command (cmd/*) or an
// example (examples/*).
//
// # Quick start
//
//	ds := ldpmarginals.NewTaxiDataset(100_000, 1)
//	p, err := ldpmarginals.NewProtocol(ldpmarginals.InpHT, ldpmarginals.Config{
//		D: ds.D, K: 2, Epsilon: 1.1,
//	})
//	if err != nil { ... }
//	agg, err := ldpmarginals.Simulate(p, ds.Records, 42, 0)
//	if err != nil { ... }
//	beta, _ := ds.Mask("CC", "Tip")
//	table, err := agg.Estimate(beta)
//
// The experiment harness that regenerates every table and figure of the
// paper lives in cmd/experiments; its package doc lists the experiment
// ids.
//
// # Deployment
//
// cmd/ldpserver serves a deployment over HTTP: clients POST wire-encoded
// reports (internal/encoding) to /report one at a time or to
// /report/batch as length-prefixed frames. It serves InpPS, InpHT,
// MargRR, MargPS, MargHT and InpHTCMS, whose aggregators are integer
// counters that can be copied and unmerged exactly and that rebuild the
// whole k-way collection in one call, KWayTablesInto (core.Folder; the
// Fourier protocols share one subcube kernel, Lemma 3.7). InpRR
// (a 2^d-bit report, with a looser bound than InpHT's at every shape)
// and the InpEM and InpOLH baselines (raw reports) run only under
// Simulate, cmd/ldpmarg and cmd/experiments; a server, its store and
// ldpload refuse them by name. Ingestion is sharded across
// per-core accumulators (core.NewSharded) so throughput scales
// with the hardware; batch ingestion amortizes HTTP and locking
// overhead per report. Sharding never changes results: aggregation
// state is integer counters, so a sharded deployment answers
// byte-identically to a sequential one fed the same reports. A view
// build (one full-domain Walsh-Hadamard transform, then the subcube
// kernel per table) runs on the calling goroutine: measured on two
// cores, a goroutine fan-out of its stages or tables cost more than it
// saved.
//
// A /report/batch body goes from wire bytes to shard counters in two
// passes with no call per report. The batch decoder
// (encoding.UnmarshalBatchEndsInto — the only one; WAL replay uses it
// too) reads the first frame through the general per-frame decode and
// from its tag picks the batch's wire shape: index (InpPS), index+sign
// (InpHT), beta+index (MargPS), beta+index+sign (MargHT, InpHTCMS).
// Later frames in the shape's common form — one-byte length prefix, the
// same tag, uvarints of at most three bytes — are read by a loop of the
// shape's own, one eight-byte load and one mask compare per frame, into
// pooled record slices; any other frame, and every frame of the bitmap shape
// (MargRR), falls back to the general decode for that frame. The
// inline path never rejects and never accepts what the general path
// would not: the accepted byte strings, the decoded reports and the
// error texts are exactly those of a frame-at-a-time decoder, which a
// differential fuzzer (FuzzBatchDecodeMatchesFrames) enforces, because
// decodable-but-invalid reports are how an LDP aggregator is attacked.
// The four index protocols then validate and count a chunk of up to
// 1,024 reports in one loop under one shard lock (InpHT and the Marg
// protocols resolve a report's mask through a dense 2^d position table
// up to d = 20), stopping at the first invalid report with exactly the
// prefix before it consumed. A batch's chunks are ingested in order on
// the request's own goroutine, inside its one admission slot, and the
// first rejection stops the batch; nothing fans out.
//
// # Epochs and the materialized view
//
// The paper's key property — one round of reports answers every k-way
// marginal — means a deployment should reconstruct once and serve many
// times. The read side (view.Build / view.NewEngine, internal/view) does
// exactly that: per epoch it snapshots the aggregator, reconstructs all
// C(d,k) k-way tables, alternates the closed-form
// cross-marginal consistency projection (consistency.Plan, weighted by
// per-marginal evidence) with projecting each table to the probability
// simplex until the tables agree, and publishes the result as an
// immutable view behind an atomic pointer. /marginal answers any
// |beta| <= k and /query evaluates conjunction batches from the cached
// epoch in O(2^k) work, lock-free, never blocking ingestion; answers
// are stale by at most one refresh period (wall-time interval, or
// explicit POST /refresh). Builds are
// deterministic, so a cached answer is bit-identical to a fresh
// rebuild of the same snapshot.
//
// # Refresh cost model
//
// Every estimator in the paper is linear in the aggregated counters:
// each scaled Hadamard coefficient and each RR/PS cell estimate is an
// unnormalized sum of per-report contributions divided by a count.
// The refresh pipeline exploits that split. The *linear stage* — the
// cumulative counter state — is cached between epochs in a reusable
// arena (core.FoldArena) and advanced by folding only the parts of the
// state — sealed window buckets and the live bucket's aggregation
// shards on an ingesting node (a cumulative node is the window ring that
// never seals, so its parts are its shards), a coordinator's peer
// components — whose version label moved since the last epoch: integer
// unmerge/merge, exact to the bit, and a moved shard is copied into the
// copy it replaces, so a steady-state capture allocates nothing. The
// *nonlinear stage* (normalize by n, consistency and simplex
// projections alternated to agreement, the sub-k cube) re-runs per epoch
// over reusable reconstruction arenas and memoized (d, k) build plans;
// for the input-view protocols it reconstructs all C(d,k) tables from
// ONE full-domain Walsh-Hadamard transform of the counters instead of
// one 2^d scan per table. Incremental epochs therefore cost what
// changed, not what accumulated. There is one build: a standalone
// view.Build runs the same stages over a snapshot, and because the folds
// are integer-exact and the nonlinear stage is a deterministic function
// of the counters, every engine epoch is bit-identical to view.Build
// over a snapshot of the same state, for every served protocol — a
// served view depends on the counters, never on how the engine reached
// them.
// Only the first epoch, and one following a failed refresh, capture the
// counter state from scratch instead of folding; a refresh that finds
// no delta at all republishes the serving epoch for free. GET
// /view/status reports how the serving epoch's state was captured
// (incremental or from scratch), its snapshot (fold) and build cost,
// how many components were folded, and the running incremental/full
// build counters; -pprof-addr serves net/http/pprof on a side listener
// for profiling refresh regressions in place.
//
// # Aggregator state
//
// Every aggregator of Table 2 keeps integer counters that are linear in
// the reports, and all six keep them in the same thing: a
// core.CounterBlock (internal/core/block.go) — the report count n, a
// user count per group, and one or two flat group-major counter planes.
// A group is what a user samples before reporting (a marginal of C for
// the three marginal-view protocols, a sketch row for HCMS); the
// input-view protocols and InpES are ungrouped, which is one group whose
// users is n. What a report may do to its group's cells is one of three
// invariant classes:
//
//	bitmap    set any of the cells      cell <= group users             InpRR, MargRR
//	sampling  increment one cell        cells sum to group users        InpPS, MargPS
//	sign      add ±1 and 1 to one cell  count >= 0, |sum| <= count,     InpHT, MargHT,
//	                                    counts sum to group users       InpES, HCMS
//
// and in every class the group users sum to n. Merge, Unmerge,
// CopyStateFrom, MarshalState and UnmarshalState are written once, on
// the block. A state blob is the kind byte, a version byte, uvarint n,
// the users when grouped, then group by group the cells as uvarints or
// the sums and counts as zig-zag varints, each slice behind its length
// (TestStateGoldenBytes pins the bytes of all eight protocols to digests
// recorded before the block existed). One validator stands behind both
// ways foreign counters get in: UnmarshalState runs it on the decoded
// state and Unmerge on what the subtraction would leave, before either
// touches the receiver. It checks each counter against what is left of
// its group's users and each group against what is left of n, so a blob
// crafted to make a sum wrap — cells of 2^63 and 2^63 that "sum" to
// nothing — is refused like any other state no set of reports produces,
// which is what a coordinator must assume a poisoned peer will send.
// Merge, Unmerge and CopyStateFrom between blocks of different kind or
// geometry are errors, not panics.
//
// A new counter-keeping protocol therefore writes three things: how a
// report increments the planes (Consume, ConsumeBatch), how the planes
// become an estimate, and its kind byte. EM and OLH keep raw reports,
// not counters, and have their own codecs; they cannot be unmerged and
// are not served.
//
// # Durability
//
// Under the one-round collection model every report is irreplaceable —
// a user reports once, ever — so a crash that loses aggregator state
// loses privacy budget that can never be re-spent. OpenStore
// (internal/store) gives a deployment a durable data directory: every
// accepted report is appended to a CRC-checked write-ahead log before
// the ack (fsynced per -fsync always / interval / off, with
// group commit so durability doesn't serialize the sharded ingest
// path), and the counters are periodically compacted into snapshots:
// the canonical MarshalState blob of one sequential aggregator merged
// from the shards — every protocol's state round-trips the codec
// byte-identically. Restarting recovers the newest valid snapshot,
// replays the WAL tail, truncates a torn final record, and merges the
// result into the live bucket's shards, so the view engine's first
// epoch already answers over everything that survived.
// cmd/ldpserver exposes this as -data-dir and -fsync, and compacts
// the WAL into a snapshot every 1,000,000 reports.
//
// # Continual release
//
// The cumulative model answers "marginals since the collection
// started"; a deployment started with -window W -bucket B answers
// "marginals over the last W of wall time" instead (internal/window).
// Both are the same window ring: the cumulative release is the ring
// whose live bucket never seals.
// Incoming reports land in a live bucket — still a sharded aggregator,
// so ingestion keeps its lock-free fan-out — and every B the live
// bucket is sealed: snapshotted once, merged into the window's
// cumulative state, and frozen. When a sealed bucket slides out of the
// window it is expired by a single Unmerge of that same frozen state,
// the exact integer inverse of its seal-time Merge, so retiring a
// bucket costs one O(state) fold rather than an O(window) rebuild —
// at d=16 the fold publishes a fresh InpPS epoch ~50x faster than
// re-merging the window (BENCH_window.json). Because the counters are
// integers under a canonical codec, a window that still covers every
// bucket is bit-identical to a cumulative deployment fed the same
// reports, and the incremental view engine rides the same folds: the
// ring's parts are its sealed buckets and its live bucket's shards, so
// newly sealed buckets merge into the engine's arena, expired buckets
// unmerge, a live shard refolds only when its version moved, and a
// rotation replaces the old live shards with the new ones.
//
// With -data-dir the ring's parts are the unit of durability: at every
// bucket boundary the store closes the active WAL segment under its
// exclusive barrier, writes each newly sealed bucket once as an
// immutable file, and deletes each expired bucket's file and segments,
// so expiry doubles as retention and writes no snapshot; snapshots hold
// the live bucket only. A crash mid-window rebuilds the ring — sealed
// buckets in their slots, the live bucket, the grid's anchor — so the
// restarted node serves and expires exactly what a never-killed node fed
// the same acked reports does. Queries may pin the horizon
// they assume: /marginal?window=W and /query?window=W are answered iff
// W equals the deployment's configured span (400 otherwise), so an
// analyst never silently reads a cumulative answer where a windowed
// one was intended. -round-eps E adds a per-round privacy ledger on
// top: each reporting round (one window span) grants every report
// token E of budget, spends Epsilon per accepted report, rejects
// over-budget submissions with 429 and a Retry-After hinting at the
// next bucket rotation, and forgets spend as it slides out of the
// window. The ledger is per node and held only in memory: a restart
// forgets spend, and a token that posts to two edges spends twice, once
// on each (ROADMAP.md, "The ledger survives a restart"). /status and
// /view/status describe the window shape (bucket counts, rotations,
// expiries, budget spend) under "window".
//
// # Cluster topology
//
// Real LDP fleets ingest at the edge and aggregate centrally, and the
// server composes into exactly that shape (internal/server, cmd/
// ldpserver -role; the state exchange itself is internal/cluster). An *edge* node runs ingestion and durability only:
// it accepts /report and /report/batch, WAL-logs every ack, and exports
// its canonical aggregator state on GET /state as a CRC-checked frame
// carrying its node id and a state version. A *coordinator* node runs
// the read side over the whole fleet: it pulls /state from its
// configured peers on a fixed cadence (failing peers back off
// exponentially), replaces each peer's previous contribution with the
// freshly pulled full state — replacement keyed on the (node id,
// version) label makes re-pulls idempotent and makes an edge's
// WAL-recovery after a crash transparent — and materializes the view
// over the merged result. A *single* node (the default) is both at
// once.
//
// Because aggregation is associative integer counting and the state
// codec is canonical, the coordinator's marginals are byte-identical to
// a single node that consumed every edge's stream directly, crash or no
// crash. The coordinator's own restart story is a per-peer state
// snapshot (-data-dir on a coordinator): persisting the decomposition
// rather than the merged state is what keeps re-pulls after a restart
// from double-counting. Coordinators themselves serve /state over the
// merged fleet, so tiers stack into deeper aggregation trees. See
// examples/http_deployment/README.md for a two-edge walkthrough and the
// failure/staleness semantics.
//
// # Fleet topology and delta exchange
//
// Both ends of the exchange are one package, internal/cluster: the
// Exporter that answers GET /state, and a coordinator's Fleet (accepted
// peer components, their validation and identity guards, their
// persistence) and Puller (rounds, backoff, the circuit breaker).
// internal/server routes /state and /pull to them and reads their
// status into /status, /view/status, /readyz and /metrics.
//
// Full-state pulls ship the edge's whole counter state every interval
// even when almost none of it moved, so the steady-state wire cost of a
// fleet grows with state size (2^d cells for the input-view protocols),
// not with report volume. The delta exchange removes that term. An
// exporter ships its state as named, individually versioned
// *components*, and the unit is the node: an edge ships one component,
// id "<node>", whose blob is the merge of its aggregation shards (a
// windowed edge: of its window), and a coordinator passes its accepted
// peer components through with their original ids and labels. Shards
// are an ingest-side device — every estimator reads only the summed
// counter vector — and they cost on the wire: sixteen sparse Poisson(4)
// shard vectors deflate to ~3 bits per counter each, two dense merged
// ones to ~4.6 bits once, so the benchmark's fleet-pull full pull is
// 74,990 bytes where per-shard components were 402,229, and a puller
// decodes, validates, holds and folds 2 blobs instead of 16. The edge
// keeps the merge in a core.FoldArena of its own, folding the same parts
// the view engine folds, so an export after one shard moved re-folds
// that shard, and while the top label has not moved every puller is
// served the retained export, its full frame deflated once.
//
// A puller acknowledges the last export version it accepted (?since= on
// the query string plus a standard If-None-Match echo of the ETag) — the
// only thing a request says — and the exporter answers with one of
// three replies: 304 Not Modified when nothing moved (a header-only
// reply, no state marshaling at all), a *delta frame* against the
// export the node retains when that is the acknowledged base, carrying
// only the components whose versions moved past it (plus ids removed
// since then), else a full frame — for an older export, a diverged
// base, or one from before a process restart (export labels carry a
// per-process random salt, so a restart is always detected and resolved
// with one full transfer, never skewed by a stale delta). The
// coordinator folds deltas through the same replacement path as full
// frames, so any mix of deltas, full frames, 304s and crashes converges
// to the same bytes.
//
// A moved component need not ship whole either. Every state blob is a
// two-byte header plus minimal uvarints, and B more reports move at most
// B counters of a sampling or Hadamard aggregator, so the exporter —
// which keeps the blobs of its latest export, by reference — ships a
// moved component as the per-counter difference from the version the
// puller holds whenever that is the smaller payload, or is under an
// eighth of the raw state (the whole state is then not deflated just to
// compare). A diff has two forms. The dense one is a zig-zag varint per
// counter, whose zeros are left to deflate — which spends some 19 bits
// on each counter that moved when 98 % did not. The sparse one lists
// only the counters that moved, bit by bit and never deflated: their
// number, the gap of unmoved counters before each as a Rice code under
// the one parameter that makes the gaps smallest, then the non-zero
// differences (zig-zag, less one) either as Rice codes under a parameter
// of their own or, where most of them are one value, as that value, the
// runs of it and the few others — about 7.7 bits per moved counter at
// the same churn, all but 0.2 of them the gap, against the 7.5 the
// positions carry — with nothing the size of the state built, deflated
// or inflated on either side (the puller copies the unmoved stretches of
// its own blob across as bytes). The exporter ships whole, dense or
// sparse by size, the earlier of two the same size; under an eighth of
// the counters moved, the dense form is not built to compare, and over
// half, on a state of more than 4,096 values (2^16 counters, not a
// Hadamard state of a few dozen coefficients, all of which move in a
// batch), it is the sparse one that is not. On the wire the encoding byte
// says which (bit0: deflated, bit1: diff, bit3: the diff is sparse, and
// then not deflated), and a diff also carries the component version
// minus its base's, the crc32c of the state it rebuilds, and its own raw
// length. Every other payload, whole or dense diff, takes the smaller of
// flate.BestSpeed and flate.HuffmanOnly. The puller rebuilds the
// canonical blob from its own copy and checks length and checksum before
// anything else sees it, so validation, folding, persistence and
// pass-through are the ones whole components go through. The frame
// names the exporter once: its own component, whose id, version and
// count are the frame's node id, version and total, is marked by one
// encoding bit instead (its diff's base is then the frame's), and a
// delta's base is written as its distance below the version, so a
// one-component delta has a 43-byte header; a coordinator's pass-through
// components carry their own fields. There is one frame form and no
// negotiation: a node of an older build, whose frames carry another
// format byte, is refused by name (wire.ErrFrameFormat), and so is a
// coordinator's peer snapshot written by one (store.ErrPeerSnapshotFormat)
// — every node of a fleet is upgraded together. The ladder below a diff,
// each rung chosen per component or per pull with no flag: the whole
// component (the retained blob is not the base's, the diff is not
// smaller, or the protocol is randomized response, where a report moves
// half the counters); one full re-fetch within the same pull (a diff
// that names a version the puller does not hold, or does not rebuild to
// the declared checksum, like any other stale base); a full frame
// outright (unknown base, restart).
//
// Component ids are globally unique and flow through coordinators
// unchanged, which is what makes fan-in *hierarchical* rather than
// merely stackable: a root coordinator pulling a mid-tier coordinator
// sees the fleet's true constituents, so its duplicate-contribution
// guard catches the same edge reachable through two paths (a diamond
// topology) across any number of tiers, its cycle guard refuses frames
// carrying its own components back, its per-peer persistence records
// the real decomposition, and its delta pulls re-ship only the
// components that moved anywhere below it. An upgrade from exporters
// that shipped "<node>/<shard>" components needs no flag and no order:
// the new process draws a new salt, the puller's acknowledged base is
// unknown to it, and the one full frame it answers with replaces the
// peer's whole held set — "<node>/0..n" out, "<node>" in — directly,
// and one tier up as a delta that removes the old ids and adds the new
// (TestMixedGranularityFullFrameReplaces). BENCH_cluster.json records
// the wire sizes for a 100-shard InpPS d=16 edge (one sparse diff of
// under 160 bytes whether 1 or 100 shards moved; 145 bytes for an
// unchanged peer) and bench/ the diff's on two 8-shard edges (one
// 1,024-report batch: 1,028 wire bytes as a sparse diff, where the
// positions of its ~1,019 counters alone carry ~953 and the frame 45;
// ~2,520 as a dense diff, ~37.5 KB as the whole component);
// TestClusterDeltaVsFullBitIdentity and TestClusterTwoTierBitIdentity
// pin delta-, diff- and tree-pulled coordinators to the marginals of
// flat full pulls and to the component blobs of a coordinator that just
// started, byte for byte.
//
// # Observability
//
// Every role serves GET /metrics in the Prometheus text exposition
// format, rendered by a zero-dependency registry (internal/metrics)
// whose hot-path instruments are single atomics — cheap enough to live
// on the ingest path. The scrape covers every layer the role runs:
// per-endpoint request latency histograms and status-class counters,
// ingest and shed totals, WAL append/fsync latency and segment counts,
// view build timings split incremental vs full, epoch age, window
// occupancy and rotations, ledger charges, per-peer pull latency and
// outcomes on a coordinator, and Go runtime stats. The same registry is
// mounted on the -pprof-addr side listener, so operators can scrape
// without touching the serving port. /healthz stays a pure liveness
// probe while GET /readyz reports readiness — a node is ready once WAL
// recovery finished and the first epoch serves (a coordinator, once it
// holds at least one peer's state) — and both ingest endpoints pass one
// bounded admission gate sized from -shards (one request in flight per
// shard, ingestQueuePerShard = 64 queued per shard; no flag tunes it):
// excess load is shed with 429 + Retry-After and counted rather than
// queued without bound. cmd/ldpload load-tests a deployment in closed-
// or open-loop (coordinated-omission-aware) mode and emits the latency
// percentiles recorded in BENCH_load.json; CI soaks a real server with
// it and gates regressions via cmd/benchguard's load mode.
//
// # Tracing and accuracy diagnostics
//
// Metrics aggregate; traces explain. Every request is rooted in a span
// by the server middleware (internal/trace, zero dependencies), its
// trace id echoed back as X-LDP-Trace-Id and stamped into every JSON
// error body, and the request's context threads the trace through the
// layers it crosses: admission waits, ledger charges, WAL appends,
// window seals and expiries, and each stage of an epoch build. The
// fleet is one trace too — a coordinator injects a W3C traceparent
// header on its GET /state pulls and an edge joins the propagated
// trace id, so a single pull round reads as one tree across processes.
// Completed traces land in a bounded in-memory ring served as JSON on
// GET /debug/traces (also mounted on the -pprof-addr side listener),
// which is also where their ids and attributes are formatted: a request
// formats nothing it does not send; traces of 1 s or longer
// (trace.SlowThreshold) are logged, and background no-op work (idle
// pull rounds, no-boundary window ticks) is discarded rather than
// allowed to flood the ring. -log-level selects the floor of the log/slog key=value
// logger; debug adds one line per request carrying its trace id.
//
// The same spirit — observability grounded in the paper, not just in
// the process — drives GET /view/diagnostics: per serving epoch it
// reports the theoretical per-marginal total-variation error bound at
// the deployment's exact parameters (Theorem 4.5's sqrt(|T|) 2^{k/2} /
// (eps sqrt(n)) family, internal/bounds), the L1 cell mass the
// consistency and simplex projections moved, how many rounds of them
// ran and how far the served tables still disagree, and the max/mean
// TV drift of the epoch's k-way tables against the previous epoch. The
// bound says how wrong the marginals may be; the correction
// magnitude says how inconsistent the raw reconstruction was; the
// drift says how fast the population is moving — together they answer
// "can I trust this epoch" without ground truth. All three are also
// exported as ldp_view_* gauges and stamped onto the build's span.
//
// # Failure modes and degraded operation
//
// Because reports are irreplaceable, the server's failure philosophy is
// refuse-don't-lie: it never acks a report it cannot make durable, and
// it never serves a view it cannot account for — but it keeps serving
// whatever it *can* account for instead of falling over. Two state
// machines implement that.
//
// A durable node tracks WAL health:
//
//	healthy ──WAL append/fsync/rotate fails──▶ degraded ──probe writes ok──▶ recovering ──WAL revived,
//	   ▲                                      (ingest shed 503,              (exclusive barrier,        memory re-snapshotted
//	   │                                       reads serve from memory)       tail repaired)                │
//	   └────────────────────────────────────────────────────────────────────────────────────────────────────┘
//
// The batch in flight when the disk dies is answered 500 with an
// Accepted count naming exactly how many reports entered memory —
// consumed but not durably acked — and every later write is shed with
// 503 + Retry-After while reads (/marginal, /query, /status, /state)
// keep serving from memory. A background sentinel probe, every
// defaultDegradedProbe (a fixed 2 s), rewrites a probe file in the data
// directory; once writes succeed it revives the WAL, repairs any torn
// segment tail, force-snapshots the in-memory state (making the
// consumed-but-unlogged reports durable after the fact), and flips the
// node back to healthy. Every 503 the server emits — degraded sheds and
// readiness refusals alike — carries Retry-After, a JSON reason, and
// the request's trace id.
//
// A coordinator tracks per-peer health: healthy, backing_off, or
// quarantined. Transient pull failures (dial, HTTP status, body read)
// back off exponentially and never quarantine — the peer rejoins the
// moment the network heals. Content failures (CRC mismatch, frame
// decode, validation, fold errors) are *poison*: after three
// consecutive poisoned pulls the circuit breaker trips, the peer's held
// contribution keeps serving unchanged, and pulls drop to a half-open
// probe every 16 pull intervals (both fixed, not flags). One
// clean pull — scheduled or forced via POST /pull — closes the breaker.
// Peer health is reported on /view/status, /readyz (which stays ready:
// the held state still serves), span attributes, and metrics.
//
// Alert on: ldp_health_state (0 healthy / 1 degraded / 2 recovering),
// ldp_degraded_transitions_total vs ldp_recoveries_total (a gap means a
// node is stuck degraded), ldp_disk_probe_failures_total,
// ldp_ingest_shed_degraded_total (reports being refused),
// ldp_wal_revives_total, ldp_cluster_peer_health (0/1/2 per peer), and
// ldp_cluster_peer_quarantines_total. ldp_fault_injections_total is
// nonzero only when -fault-spec armed the deterministic fault registry
// (internal/fault) — a dev/chaos-testing lever that must never be set
// in production. Recovery procedure and a chaos walkthrough live in
// examples/http_deployment/README.md.
package ldpmarginals
