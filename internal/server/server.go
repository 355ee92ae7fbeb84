// Package server provides an HTTP deployment of the marginal collection
// pipeline: clients POST wire-encoded reports to /report (one frame) or
// /report/batch (length-prefixed frames), and analysts read estimates
// from /marginal and /query. The paper argues its protocols are
// "eminently suitable for implementation in existing LDP deployments"
// (Section 7); this package is the reference shape of such a deployment
// at scale.
//
// # Node roles and the cluster tier
//
// A deployment is composed from three pipelines — ingestion (sharded
// aggregation + durable WAL), serving (the materialized-view engine),
// and state exchange (canonical aggregator state over GET /state) —
// selected by Options.Role:
//
//   - single (default) runs everything in one process, exactly the
//     monolithic behavior.
//   - edge runs ingestion only: it accepts and WAL-logs reports and
//     exports its canonical state for a coordinator; it serves no
//     estimates and never pays reconstruction cost.
//   - coordinator runs serving only: it periodically pulls GET /state
//     from Options.Peers, replaces each peer's previous contribution
//     with the freshly pulled full state (idempotent by the peer's
//     (node id, version) label), and materializes the view over the
//     merged fleet. It rejects direct report ingestion.
//
// Because aggregation is associative integer counting and the state
// codec is canonical, a coordinator's view over E edges splitting a
// report stream is byte-identical to a single node consuming the whole
// stream — including after an edge crashes and recovers from its WAL.
// See internal/server/cluster.go for the exchange semantics.
//
// # Epochs and staleness
//
// The read side serves from a materialized view (internal/view): all
// C(d,k) k-way marginals are reconstructed once per epoch from a
// snapshot of the aggregation shards, made mutually consistent, and
// published as an immutable view behind an atomic pointer. /marginal
// and /query answer from the cached epoch in O(2^k) work without taking
// any lock — reads never block ingestion and never trigger
// reconstruction. Answers are therefore stale by up to one refresh
// period: the epoch advances on the configured policy (Options.Refresh:
// wall-time interval and/or report-count delta) and on explicit
// POST /refresh. /view/status reports the serving epoch, its report
// count, and how many reports have arrived since it was built — and, on
// a coordinator, the per-peer composition of the serving epoch.
//
// # Ingestion architecture
//
// The server owns one core.ShardedAggregator: P per-shard accumulators
// behind P mutexes, merged on demand. A single /report locks exactly one
// shard for one Consume; a /report/batch is decoded outside any lock,
// split into chunks, and each chunk is ingested into a round-robin shard
// under one lock acquisition through a bounded worker pool, so batches
// amortize both HTTP and locking overhead and scale across cores.
// /status reads the report count from an atomic counter and never takes
// a lock; /marginal merges a snapshot of the shards (stalling ingestion
// for at most one shard at a time) and reconstructs from the private
// snapshot.
//
// Shard count defaults to GOMAXPROCS. More shards than concurrent
// writers buys nothing and grows aggregator memory (O(shards * state));
// fewer shards re-introduces contention. See Options.Shards.
//
// # Durability
//
// With Options.Store set, the deployment survives crashes: every
// accepted report is appended to a write-ahead log (internal/store)
// before the request is acked, under the store's fsync policy, and the
// aggregation state is periodically compacted into counter snapshots.
// On construction the server seeds its sharded aggregator with the
// state the store recovered — so the view engine's first epoch already
// serves everything that survived — and registers the aggregator as
// the store's snapshot source. Close flushes the log and writes a
// final snapshot. GET /status reports the WAL footprint and GET
// /view/status whether the serving epoch contains recovered reports.
// Without a store the deployment is memory-only, exactly as before.
// A coordinator does not ingest, so it takes no Store; its durable
// artifact is the per-peer state snapshot in Options.ClusterDir, which
// a restart recovers before re-pulls replace it.
//
// # Batch semantics
//
// A batch is not atomic: reports preceding a rejected report (and any
// chunks already in flight when the rejection happens) remain consumed,
// matching the Aggregator.ConsumeBatch contract; further chunks are not
// dispatched. The 400 rejection reply is a BatchResponse carrying the
// exact number of reports ingested plus the first rejection, identified
// by its batch-global index. Under local differential privacy every
// report is individually valid or individually rejected, so partial
// ingestion never corrupts the estimate — it only under-counts the
// failed batch.
package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/logx"
	"ldpmarginals/internal/metrics"
	"ldpmarginals/internal/privacy"
	"ldpmarginals/internal/query"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/trace"
	"ldpmarginals/internal/view"
	"ldpmarginals/internal/window"
	"ldpmarginals/internal/wire"
)

// budgetTokenHeader carries the stable client token a windowed
// deployment with a per-round budget charges reports against.
const budgetTokenHeader = "X-LDP-Token"

// maxReportBytes bounds a single report upload, matching the largest
// frame the batch format accepts.
const maxReportBytes = encoding.MaxFrameBytes

// defaultMaxBatchBytes bounds a /report/batch body: 16 MiB holds over a
// million typical frames (InpHT at d=20 is a few bytes per report).
const defaultMaxBatchBytes = 16 << 20

// defaultMaxQueryBytes bounds a /query body: 1 MiB of JSON holds tens of
// thousands of conjunctions, far beyond any sane analyst batch.
const defaultMaxQueryBytes = 1 << 20

// defaultMaxStateBytes bounds a pulled /state body. The largest live
// state is InpRR near d=20: 2^20 uvarint counters plus framing, well
// under this.
const defaultMaxStateBytes = 256 << 20

// defaultPullInterval is the coordinator's pull cadence when
// Options.PullInterval is unset.
const defaultPullInterval = 5 * time.Second

// defaultPullTimeout bounds one peer state transfer.
const defaultPullTimeout = 30 * time.Second

// maxBatchReports bounds the decoded report count of one batch request,
// capping the memory amplification of a body packed with minimal
// frames (a decoded Report is an order of magnitude larger than a
// 3-byte frame). Populations beyond it split across multiple posts.
const maxBatchReports = 1 << 20

// batchChunk is the number of decoded reports ingested per shard lock
// acquisition. Large enough to amortize locking, small enough that a
// large batch spreads across every shard.
const batchChunk = 1024

// Options tunes a deployment; the zero value selects the defaults
// (a single-role, memory-only node).
type Options struct {
	// Role selects which pipeline stages this node runs; the zero value
	// is RoleSingle (the monolithic deployment).
	Role Role
	// NodeID names this node in state-exchange frames and cluster
	// status; empty selects a random "node-xxxxxxxx" id. Must be unique
	// across a cluster: a coordinator refuses to merge two peers
	// claiming the same id.
	NodeID string
	// Peers is the list of peer base URLs (e.g. "http://10.0.0.7:8080")
	// a coordinator pulls state from. Required for RoleCoordinator,
	// rejected for other roles.
	Peers []string
	// PullInterval is the coordinator's per-peer pull cadence; <= 0
	// selects 5s. Failing peers back off exponentially up to 32x.
	PullInterval time.Duration
	// PullTimeout bounds one peer state transfer; <= 0 selects 30s.
	PullTimeout time.Duration
	// MaxStateBytes bounds a pulled /state body; <= 0 selects 256 MiB.
	MaxStateBytes int64
	// ClusterDir, when set on a coordinator, persists the latest
	// accepted peer states (atomically, CRC-checked) so a restart
	// resumes from them instead of an empty fleet. Rejected for other
	// roles (their durability is Store).
	ClusterDir string

	// Shards is the number of per-shard accumulators; <= 0 selects
	// GOMAXPROCS.
	Shards int
	// IngestWorkers bounds the number of goroutines concurrently writing
	// batch chunks into shards, and likewise the number of /report/batch
	// requests being buffered and decoded at once; <= 0 matches the
	// shard count.
	IngestWorkers int
	// MaxBatchBytes bounds a /report/batch body; <= 0 selects 16 MiB.
	MaxBatchBytes int64
	// MaxInflightIngest bounds how many /report and /report/batch
	// requests are processed concurrently; arrivals beyond it wait in a
	// bounded queue (MaxIngestQueue) and are shed with 429 + Retry-After
	// once that fills. Zero selects 4x the ingest workers; negative
	// disables admission control entirely.
	MaxInflightIngest int
	// MaxIngestQueue bounds how many ingest requests may wait for an
	// in-flight slot before new arrivals are shed; <= 0 selects 16x the
	// in-flight cap.
	MaxIngestQueue int
	// MaxQueryBytes bounds a /query JSON body; <= 0 selects 1 MiB.
	MaxQueryBytes int64
	// Refresh is the automatic view-refresh policy; the zero value means
	// the view only advances on POST /refresh.
	Refresh view.Policy
	// View tunes the per-epoch post-processing (consistency rounds,
	// simplex projection).
	View view.Options
	// Store, when non-nil, makes ingestion durable: accepted reports are
	// appended to its write-ahead log before the ack, the recovered
	// state seeds the aggregator, and the aggregator becomes the
	// store's snapshot source. The server owns the store from here on:
	// Server.Close closes it. Rejected for RoleCoordinator, which does
	// not ingest.
	Store *store.Store

	// DegradedProbeInterval is the cadence at which a node degraded by a
	// WAL failure probes its data directory (sentinel write + fsync) and
	// attempts recovery; <= 0 selects 2s. Ignored without a Store.
	DegradedProbeInterval time.Duration
	// QuarantineAfter is the number of consecutive poison failures
	// (corrupt, undecodable, or unfoldable frames — not transport
	// errors) after which a coordinator quarantines a peer; <= 0 selects
	// 3. Ignored outside RoleCoordinator.
	QuarantineAfter int
	// QuarantineInterval is the half-open probe cadence for quarantined
	// peers: one pull is attempted per interval, and a clean pull lifts
	// the quarantine; <= 0 selects 16x PullInterval. Ignored outside
	// RoleCoordinator.
	QuarantineInterval time.Duration

	// Window, with Bucket, turns the deployment into a continual
	// release: reports land in a time-bucketed ring (internal/window)
	// and estimates cover the last Window of wall time instead of the
	// whole collection. Window must be a positive multiple of Bucket.
	// Rejected for RoleCoordinator — buckets are sealed edge-side and a
	// coordinator composes its peers' windowed /state exports unchanged.
	Window time.Duration
	// Bucket is the window's rotation granularity: the live bucket
	// seals (and, with a Store, the WAL segment rotates) every Bucket,
	// and state expires one Bucket at a time.
	Bucket time.Duration
	// RoundEps, when positive, enforces a per-client epsilon budget per
	// window: each accepted report spends the deployment's epsilon
	// against the token in its X-LDP-Token header, and reports from
	// tokens whose window spend would exceed RoundEps are rejected with
	// 429. Requires Window.
	RoundEps float64

	// Log receives the server's leveled key=value log lines: per-request
	// logging at debug (carrying the trace id so log lines and traces
	// correlate), degraded-mode events at warn. Nil disables logging.
	Log *logx.Logger
	// TraceCapacity is the completed-trace ring size behind GET
	// /debug/traces; <= 0 selects trace.DefaultCapacity.
	TraceCapacity int
	// SlowTraceThreshold is the request duration at or above which a
	// completed trace is additionally logged at warn; <= 0 selects 1s.
	SlowTraceThreshold time.Duration
}

// defaultSlowTrace is the slow-trace log threshold selected by
// Options.SlowTraceThreshold <= 0.
const defaultSlowTrace = time.Second

// ingestTarget is the write destination of the ingest pipeline: the
// sharded aggregator directly for a cumulative deployment, the window
// ring (whose live bucket is a sharded aggregator) for a windowed one.
type ingestTarget interface {
	Consume(core.Report) error
	ConsumeBatch([]core.Report) error
	N() int
}

// ingestPipeline is the write side of a deployment: the ingest target,
// the optional durable store wired in front of it, and the bounded
// batch worker pool. Roles that ingest (single, edge) run one.
type ingestPipeline struct {
	sink      ingestTarget
	st        *store.Store  // nil for a memory-only deployment
	recovered int           // reports restored from the store at startup
	slots     chan struct{} // bounded worker-pool slots for batch chunks
	batches   chan struct{} // bounds whole /report/batch requests in flight
	maxBatch  int64
}

// newIngestPipeline wires the store (seeding recovered state through
// seed, registering src as the snapshot source) and sizes the worker
// pools. shards is the resolved aggregation width the worker defaults
// scale with.
func newIngestPipeline(sink ingestTarget, seed func(core.Aggregator) error, src func() (core.Aggregator, error), shards int, opts Options) (*ingestPipeline, error) {
	recovered := 0
	if opts.Store != nil {
		rec, _ := opts.Store.Recovered()
		if rec != nil && rec.N() > 0 {
			// Seed the live pipeline before the engine builds its first
			// epoch, so recovered reports are served immediately.
			if err := seed(rec); err != nil {
				return nil, fmt.Errorf("server: seeding recovered state: %w", err)
			}
			recovered = rec.N()
		}
		// The recovered state now lives in the live pipeline; let the
		// store drop its copy.
		opts.Store.ReleaseRecovered()
		opts.Store.SetSource(src)
	}
	workers := opts.IngestWorkers
	if workers <= 0 {
		workers = shards
	}
	maxBatch := opts.MaxBatchBytes
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatchBytes
	}
	return &ingestPipeline{
		sink:      sink,
		st:        opts.Store,
		recovered: recovered,
		slots:     make(chan struct{}, workers),
		batches:   make(chan struct{}, workers),
		maxBatch:  maxBatch,
	}, nil
}

// readPipeline is the read side of a deployment: the view engine over
// its source (the local aggregator for single, the fleet for a
// coordinator). Roles that serve estimates (single, coordinator) run
// one.
type readPipeline struct {
	engine   *view.Engine
	src      view.Source // what staleness is measured against
	maxQuery int64
}

// Server exposes one protocol deployment over HTTP. Safe for concurrent
// use by any number of HTTP client goroutines.
type Server struct {
	protocol core.Protocol
	tag      encoding.Tag
	role     Role
	nodeID   string

	agg    *core.ShardedAggregator // local aggregation state (all roles)
	win    *window.Ring            // windowed deployments only
	ledger *privacy.Ledger         // windowed deployments with a RoundEps budget
	rotor  *rotator                // drives bucket seal/expiry for windowed deployments

	// verSalt offsets the exported state version with a per-process
	// random value. The in-memory mutation counters restart at zero with
	// the process, so without the salt a node that crashed, recovered a
	// *different* state (reports inside the fsync window are lost), and
	// reached the same counter value could be skipped by a coordinator
	// as "unchanged". Consumers compare version labels only for
	// equality, so the salt costs nothing and makes cross-restart
	// collisions vanishingly unlikely. It is drawn from [2^62, 2^63):
	// 62 random bits, and every label is a nine-byte uvarint that no
	// realistic mutation count carries into a tenth, so a frame's size
	// is a function of its content alone.
	verSalt uint64

	ingest *ingestPipeline // nil when the role doesn't ingest (coordinator)
	reads  *readPipeline   // nil when the role doesn't serve (edge)
	fleet  *fleet          // coordinator only
	puller *puller         // coordinator only

	// stateHist remembers recent componentized /state export labels and
	// their per-component version vectors — the bases deltas are diffed
	// against. In-memory only: a restart (which re-salts the version
	// label anyway) empties it, and pullers then fall back to one full
	// frame.
	stateHist exportHistory
	// exportMu orders componentized /state exports; it guards lastExport
	// (the latest one: what an unchanged label is served from and the
	// next export's diffs are taken against) and exportArena (the merged
	// local state the next export re-folds only moved shards into; nil
	// until the first export, and for protocols without exact folds).
	exportMu    sync.Mutex
	lastExport  *stateExport
	exportArena core.StateArena

	ins    *serverInstruments // always non-nil; hot paths update unconditionally
	adm    *admission         // ingest load shedding; nil when disabled or not ingesting
	deg    *degrader          // WAL-failure degradation; nil without a durable ingest path
	reg    *metrics.Registry  // the /metrics registry, assembled at construction
	tracer *trace.Tracer      // always non-nil; roots one span per request
	log    *logx.Logger       // nil-safe; nil discards everything
}

// New builds a single-role server around a protocol with default
// Options. The protocol's name must have a wire tag registered in the
// encoding package.
func New(p core.Protocol) (*Server, error) {
	return NewWithOptions(p, Options{})
}

// NewWithOptions builds a server around a protocol with explicit tuning.
func NewWithOptions(p core.Protocol, opts Options) (*Server, error) {
	// The server owns the store from the moment it is passed in: on any
	// construction failure it must be closed, or its committer
	// goroutines and open WAL segment leak (callers are told not to
	// close it themselves).
	fail := func(err error) (*Server, error) {
		if opts.Store != nil {
			_ = opts.Store.Close()
		}
		return nil, err
	}
	tag, err := encoding.TagForProtocol(p.Name())
	if err != nil {
		return fail(err)
	}
	if err := validateRoleOptions(opts); err != nil {
		return fail(err)
	}
	nodeID := opts.NodeID
	if nodeID == "" {
		nodeID, err = randomNodeID()
		if err != nil {
			return fail(err)
		}
	}
	if len(nodeID) > wire.MaxNodeIDLen {
		return fail(fmt.Errorf("server: node id of %d bytes exceeds %d", len(nodeID), wire.MaxNodeIDLen))
	}
	s := &Server{
		protocol: p,
		tag:      tag,
		role:     opts.Role,
		nodeID:   nodeID,
		agg:      core.NewSharded(p, opts.Shards),
		ins:      newServerInstruments(),
		log:      opts.Log.With("node", nodeID),
	}
	slow := opts.SlowTraceThreshold
	if slow <= 0 {
		slow = defaultSlowTrace
	}
	s.tracer = trace.New(trace.Options{
		Capacity:      opts.TraceCapacity,
		SlowThreshold: slow,
		SlowLog: func(traceID, rootName string, d time.Duration) {
			s.log.Warn("slow trace", "trace", traceID, "root", rootName, "dur", d)
		},
	})
	var salt [8]byte
	if _, err := rand.Read(salt[:]); err != nil {
		return fail(fmt.Errorf("server: generating version salt: %w", err))
	}
	s.verSalt = 1<<62 | binary.LittleEndian.Uint64(salt[:])>>2
	if opts.Window > 0 {
		win, err := window.NewRing(p, window.Options{
			Window: opts.Window,
			Bucket: opts.Bucket,
			Shards: s.agg.Shards(),
		})
		if err != nil {
			return fail(err)
		}
		s.win = win
		if opts.RoundEps > 0 {
			ledger, err := privacy.NewLedger(opts.RoundEps, p.Config().Epsilon, int(opts.Window/opts.Bucket))
			if err != nil {
				return fail(err)
			}
			s.ledger = ledger
		}
	}
	if s.role.ingests() {
		// The windowed ring replaces the bare sharded aggregator as the
		// ingest target, recovery seed, and snapshot source; the
		// cumulative path is unchanged.
		sink, seed, src := ingestTarget(s.agg), s.agg.Merge, s.agg.Snapshot
		if s.win != nil {
			sink, seed, src = s.win, s.win.SeedRecovered, s.win.Snapshot
		}
		if s.ingest, err = newIngestPipeline(sink, seed, src, s.agg.Shards(), opts); err != nil {
			return fail(err)
		}
		if opts.MaxInflightIngest >= 0 {
			inflight := opts.MaxInflightIngest
			if inflight == 0 {
				inflight = 4 * cap(s.ingest.slots)
			}
			queue := opts.MaxIngestQueue
			if queue <= 0 {
				queue = 16 * inflight
			}
			s.adm = newAdmission(inflight, queue)
		}
		if s.ingest.st != nil {
			s.deg = newDegrader(s.ingest.st, s.log, opts.DegradedProbeInterval)
		}
	}
	var src view.Source = s.agg
	if s.win != nil {
		src = s.win
	}
	if s.role == RoleCoordinator {
		if s.fleet, err = newFleet(s.agg, p, opts.Peers, opts.ClusterDir, nodeID); err != nil {
			return fail(err)
		}
		src = s.fleet
		interval := opts.PullInterval
		if interval <= 0 {
			interval = defaultPullInterval
		}
		timeout := opts.PullTimeout
		if timeout <= 0 {
			timeout = defaultPullTimeout
		}
		maxState := opts.MaxStateBytes
		if maxState <= 0 {
			maxState = defaultMaxStateBytes
		}
		s.puller = newPuller(s.fleet, interval, timeout, maxState,
			opts.QuarantineAfter, opts.QuarantineInterval, s.tracer, s.log)
	}
	if s.role.serves() {
		maxQuery := opts.MaxQueryBytes
		if maxQuery <= 0 {
			maxQuery = defaultMaxQueryBytes
		}
		engine, err := view.NewEngine(src, p, view.EngineOptions{Refresh: opts.Refresh, Build: opts.View, Tracer: s.tracer})
		if err != nil {
			return fail(err)
		}
		s.reads = &readPipeline{engine: engine, src: src, maxQuery: maxQuery}
	}
	if s.puller != nil {
		// Start pulling only after the initial epoch is built, so the
		// engine never races fleet mutations during construction.
		s.puller.start()
	}
	if s.win != nil {
		// Rotation starts after the store's recovered state is seeded and
		// the initial epoch is built, so the first Advance never races
		// construction.
		s.rotor = newRotator(s)
		s.rotor.start()
	}
	if s.deg != nil {
		s.deg.start()
	}
	// Every layer now exists; assemble the /metrics registry over them.
	s.reg = s.buildRegistry()
	return s, nil
}

// validateRoleOptions rejects option combinations that cross role
// boundaries, so a misconfigured node fails at startup instead of
// silently dropping a pipeline stage.
func validateRoleOptions(opts Options) error {
	if (opts.Window > 0) != (opts.Bucket > 0) {
		return errors.New("server: Window and Bucket must be set together (a window needs a rotation granularity)")
	}
	if opts.RoundEps > 0 && opts.Window <= 0 {
		return errors.New("server: RoundEps budgets reports per window round; set Window and Bucket")
	}
	if opts.Role == RoleCoordinator {
		if opts.Window > 0 {
			return errors.New("server: role coordinator does not ingest and takes no window; buckets are sealed edge-side and compose through the /state pulls unchanged")
		}
		if len(opts.Peers) == 0 {
			return errors.New("server: role coordinator requires at least one peer URL")
		}
		if opts.Store != nil {
			return errors.New("server: role coordinator does not ingest and takes no Store; durability lives at the edges (use ClusterDir for peer-state persistence)")
		}
		return nil
	}
	if len(opts.Peers) > 0 {
		return fmt.Errorf("server: role %s takes no peers (only a coordinator pulls state)", opts.Role)
	}
	if opts.ClusterDir != "" {
		return fmt.Errorf("server: role %s takes no ClusterDir (its durability is Store)", opts.Role)
	}
	return nil
}

// randomNodeID generates a "node-xxxxxxxx" id unique enough for a
// fleet.
func randomNodeID() (string, error) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating node id: %w", err)
	}
	return "node-" + hex.EncodeToString(b[:]), nil
}

// Close stops the coordinator's peer puller and the view engine's
// refresh loop and, for a durable deployment, flushes the write-ahead
// log and writes a final counter snapshot (a coordinator persists its
// peer states instead). The server's handlers remain usable (serving
// the last published epoch, rejecting ingestion); Close is idempotent.
func (s *Server) Close() error {
	if s.rotor != nil {
		// Stop rotations before the store goes away: an Advance mid-close
		// would try to rotate a closed WAL.
		s.rotor.Close()
	}
	if s.puller != nil {
		s.puller.Close()
	}
	if s.deg != nil {
		// Stop the health probe before the store goes away: a Recover
		// mid-close would race the final snapshot.
		s.deg.Close()
	}
	if s.reads != nil {
		s.reads.engine.Close()
	}
	if s.fleet != nil {
		s.fleet.persist()
	}
	if s.ingest != nil && s.ingest.st != nil {
		return s.ingest.st.Close()
	}
	return nil
}

// Role returns the node's role.
func (s *Server) Role() Role { return s.role }

// NodeID returns the node's cluster id.
func (s *Server) NodeID() string { return s.nodeID }

// Store returns the durability layer, or nil for a memory-only (or
// coordinator) deployment.
func (s *Server) Store() *store.Store {
	if s.ingest == nil {
		return nil
	}
	return s.ingest.st
}

// View returns the engine publishing the server's materialized view, or
// nil for an edge (which serves no estimates).
func (s *Server) View() *view.Engine {
	if s.reads == nil {
		return nil
	}
	return s.reads.engine
}

// N returns the number of reports behind this node: local ingestion for
// single and edge roles, the fleet-wide count for a coordinator.
// Lock-free.
func (s *Server) N() int {
	if s.fleet != nil {
		return s.fleet.N()
	}
	if s.win != nil {
		return s.win.N()
	}
	return s.agg.N()
}

// Window returns the sliding-window ring of a windowed deployment, or
// nil for a cumulative one.
func (s *Server) Window() *window.Ring { return s.win }

// Shards returns the number of aggregation shards of the deployment.
func (s *Server) Shards() int { return s.agg.Shards() }

// Handler returns the HTTP routes of the deployment:
//
//	POST /report        binary frame (encoding.Marshal)        -> 204  (single, edge)
//	POST /report/batch  length-prefixed frames (MarshalBatch)  -> JSON count (single, edge)
//	GET  /marginal      ?beta=<decimal mask>                   -> JSON table (single, coordinator)
//	POST /query         JSON conjunction batch                 -> JSON per-query answers (single, coordinator)
//	POST /refresh       build + publish the next epoch         -> JSON view status (single, coordinator)
//	GET  /view/status   serving epoch, staleness, build time   -> JSON (single, coordinator)
//	GET  /view/diagnostics  accuracy diagnostics (TV bound, drift) -> JSON (single, coordinator)
//	GET  /state         canonical aggregator state frame       -> binary (all roles)
//	POST /pull          pull every peer now                    -> JSON cluster status (coordinator)
//	GET  /status        deployment metadata + cluster block    -> JSON
//	GET  /healthz       liveness probe                         -> JSON ok
//	GET  /readyz        readiness probe (503 until ready)      -> JSON
//	GET  /metrics       Prometheus text exposition             -> text/plain
//	GET  /debug/traces  completed request/lifecycle traces     -> JSON (all roles)
//
// Endpoints outside the node's role answer 403 naming the role. Every
// request passes through the instrumentation middleware (per-endpoint
// latency and status-class counters, visible on /metrics), which also
// roots a trace span per request and echoes its id as X-LDP-Trace-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/report", s.handleReport)
	mux.HandleFunc("/report/batch", s.handleBatch)
	mux.HandleFunc("/marginal", s.handleMarginal)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/refresh", s.handleRefresh)
	mux.HandleFunc("/view/status", s.handleViewStatus)
	mux.HandleFunc("/view/diagnostics", s.handleViewDiagnostics)
	mux.HandleFunc("/state", s.handleState)
	mux.HandleFunc("/pull", s.handlePull)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/traces", s.tracer.Handler())
	return s.instrument(mux)
}

// Tracer returns the server's tracer. Never nil.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// TraceHandler returns the GET /debug/traces handler, for mounting on a
// side listener alongside the metrics handler.
func (s *Server) TraceHandler() http.Handler { return s.tracer.Handler() }

// ErrorResponse is the JSON shape of every plain error reply (4xx/5xx
// outside the endpoint-specific shapes like BatchResponse): the
// message, plus the request's trace id so a client-side error report
// can be joined against the server's /debug/traces ring and logs.
type ErrorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// httpError answers an error as JSON, carrying the request's trace id
// when the middleware opened one.
func httpError(w http.ResponseWriter, r *http.Request, msg string, code int) {
	resp := ErrorResponse{Error: msg}
	if span := trace.FromContext(r.Context()); span != nil {
		resp.TraceID = span.TraceID().String()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

// allow guards a handler's method, answering 405 with the Allow header
// (RFC 9110 §15.5.6) for anything else.
func allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	httpError(w, r, method+" required", http.StatusMethodNotAllowed)
	return false
}

// rejectRole answers 403 for an endpoint outside the node's role,
// naming the role that does serve it.
func (s *Server) rejectRole(w http.ResponseWriter, r *http.Request, what, serveRole string) {
	httpError(w, r, fmt.Sprintf("role %s does not serve %s; use a %s node", s.role, what, serveRole), http.StatusForbidden)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	if s.ingest == nil {
		s.rejectRole(w, r, "report ingestion", "single or edge")
		return
	}
	if !s.admitHealthy(w, r) {
		return
	}
	if s.adm != nil {
		if !s.admit(w, r, s.ins.shedReport) {
			return
		}
		defer s.adm.release()
	}
	frame, err := io.ReadAll(io.LimitReader(r.Body, maxReportBytes+1))
	if err != nil {
		httpError(w, r, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(frame) > maxReportBytes {
		httpError(w, r, "report too large", http.StatusRequestEntityTooLarge)
		return
	}
	tag, rep, err := encoding.Unmarshal(frame)
	if err != nil {
		httpError(w, r, "malformed report: "+err.Error(), http.StatusBadRequest)
		return
	}
	if tag != s.tag {
		httpError(w, r, fmt.Sprintf("report for protocol tag %d, deployment runs %d", tag, s.tag), http.StatusBadRequest)
		return
	}
	if !s.chargeBudget(w, r, 1) {
		return
	}
	in := s.ingest
	var rejected error
	var err2 error
	if in.st != nil {
		// The frame is appended to the WAL (honoring the fsync policy)
		// before the ack below; a single report logs as a one-frame batch.
		batch := encoding.AppendFrame(nil, frame)
		err2 = in.st.IngestContext(r.Context(), batch, func() (int, int, error) {
			if err := in.sink.Consume(rep); err != nil {
				rejected = err
				return 0, 0, err
			}
			return 1, len(batch), nil
		})
	} else if err := in.sink.Consume(rep); err != nil {
		rejected = err
	}
	if rejected != nil {
		s.ins.rejectedReports.Inc()
		httpError(w, r, "rejected: "+rejected.Error(), http.StatusBadRequest)
		return
	}
	s.ins.ingestReports.Inc()
	if err2 != nil {
		// Consumed but not durably logged: a server fault, not a client
		// one. The report is in memory and the next snapshot captures
		// it, but the durability promise of the ack cannot be made.
		httpError(w, r, "persistence failed: "+err2.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ingestChunk feeds the decoded chunk reps[lo:hi] into the sharded
// aggregator — through the store's consume+log pair when the deployment
// is durable, so the accepted prefix of the chunk is in the WAL before
// the batch handler acks. The logged payload is the chunk's slice of
// the request body (body and ends as returned by UnmarshalBatchEnds):
// the validated wire bytes verbatim. Group commit in the store keeps
// concurrent chunks from serializing on the fsync.
//
// The returned count is how many of the chunk's reports entered the
// aggregator, regardless of the error: on a report rejection it is the
// accepted prefix, and on a WAL failure (which can mask a rejection)
// it is still exactly what the aggregator consumed.
func (in *ingestPipeline) ingestChunk(ctx context.Context, reps []core.Report, body []byte, ends []int, lo, hi int) (int, error) {
	chunk := reps[lo:hi]
	if in.st == nil {
		err := in.sink.ConsumeBatch(chunk)
		if err == nil {
			return len(chunk), nil
		}
		var be *core.BatchError
		if errors.As(err, &be) {
			return be.Index, err
		}
		return 0, err
	}
	start := startOf(ends, lo)
	applied := 0
	err := in.st.IngestContext(ctx, body[start:ends[hi-1]], func() (int, int, error) {
		err := in.sink.ConsumeBatch(chunk)
		if err == nil {
			applied = len(chunk)
			return applied, ends[hi-1] - start, nil
		}
		var be *core.BatchError
		if errors.As(err, &be) && be.Index > 0 {
			applied = be.Index
			return applied, ends[lo+be.Index-1] - start, err
		}
		return 0, 0, err
	})
	return applied, err
}

// startOf returns the byte offset in the request body where report lo's
// frame begins.
func startOf(ends []int, lo int) int {
	if lo > 0 {
		return ends[lo-1]
	}
	return 0
}

// anchorChunkError turns the error of the chunk that began at batch
// index lo into the batch's terms: a report rejection is re-anchored
// from its chunk-relative index to the batch (idx is the rejected
// report's batch index); anything else is the WAL (or store shutdown)
// failing, reported at the chunk's start with persist set. In that case
// the consumed reports are in the aggregator — the accepted count stays
// accurate — but the durability promise of a 200 cannot be made; it is
// a server fault, not a client one.
func anchorChunkError(lo int, err error) (idx int, persist bool, anchored error) {
	var be *core.BatchError
	if errors.As(err, &be) {
		idx = lo + be.Index
		return idx, false, fmt.Errorf("batch report %d: %w", idx, be.Err)
	}
	return lo, true, err
}

// ingestChunkReleasing is ingestChunk for a caller that has taken a slot
// of the bounded pool: it gives the slot back when the chunk is done.
func (in *ingestPipeline) ingestChunkReleasing(ctx context.Context, reps []core.Report, body []byte, ends []int, lo, hi int) (int, error) {
	defer func() { <-in.slots }()
	return in.ingestChunk(ctx, reps, body, ends, lo, hi)
}

// ingestBatch feeds a decoded batch to the sink in chunks of batchChunk,
// each under one slot of the bounded pool and one shard lock, and
// returns once all of it is ingested — so a 200 means the reports are
// counted. accepted is summed per chunk (not read back from the shared
// aggregator counter, which concurrent requests also move); err is the
// failure with the lowest batch index, anchored to the batch, and
// persistFailed says a chunk failed in the store rather than on a
// report.
//
// A batch of one chunk runs on the calling goroutine: it takes its slot
// and holds it for exactly the chunk, as a spawned chunk does, without
// the spawn, the WaitGroup and the hand-off. Larger batches fan out so
// their chunks land on distinct shards in parallel.
func (in *ingestPipeline) ingestBatch(ctx context.Context, reps []core.Report, body []byte, ends []int) (accepted int, persistFailed bool, err error) {
	if len(reps) <= batchChunk {
		in.slots <- struct{}{}
		accepted, err = in.ingestChunkReleasing(ctx, reps, body, ends, 0, len(reps))
		if err != nil {
			_, persistFailed, err = anchorChunkError(0, err)
		}
		return accepted, persistFailed, err
	}
	return in.fanOutChunks(ctx, reps, body, ends)
}

// fanOutChunks is ingestBatch for a batch of more than one chunk.
func (in *ingestPipeline) fanOutChunks(ctx context.Context, reps []core.Report, body []byte, ends []int) (accepted int, persistFailed bool, err error) {
	var (
		wg       sync.WaitGroup
		total    atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstIdx int
	)
	for lo := 0; lo < len(reps); lo += batchChunk {
		// A rejected chunk stops further dispatch; only chunks already
		// in flight can still land after it.
		if failed.Load() {
			break
		}
		in.slots <- struct{}{}
		// Re-check after the (possibly long) wait for a pool slot: a
		// rejection may have landed while this chunk was queued.
		if failed.Load() {
			<-in.slots
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			consumed, chunkErr := in.ingestChunkReleasing(ctx, reps, body, ends, lo, hi)
			total.Add(int64(consumed))
			if chunkErr == nil {
				return
			}
			idx, persist, chunkErr := anchorChunkError(lo, chunkErr)
			failed.Store(true)
			// Chunks fail in arbitrary wall-clock order; keep the
			// rejection with the lowest batch index, matching the
			// "first rejected report" contract.
			errMu.Lock()
			if err == nil || idx < firstIdx {
				err, firstIdx = chunkErr, idx
			}
			persistFailed = persistFailed || persist
			errMu.Unlock()
		}(lo, min(lo+batchChunk, len(reps)))
	}
	wg.Wait()
	return int(total.Load()), persistFailed, err
}

// batchBuffers is one /report/batch request's reusable workspace: the
// raw body and the decoded record slices. Pooled so steady-state ingest
// stops allocating per request — the decoded []core.Report alone is an
// order of magnitude larger than a typical body. Only slice headers are
// reused; per-report payloads are freshly decoded (see
// encoding.UnmarshalBatchEndsInto), so nothing an aggregator could have
// retained is ever overwritten.
type batchBuffers struct {
	body []byte
	reps []core.Report
	ends []int
}

var batchBufPool = sync.Pool{New: func() any { return new(batchBuffers) }}

// The pool keeps a workspace only while it is the size ordinary
// requests need: a few chunks of decoded reports and 1/16 of the default
// body limit. Anything larger — one maxBatchReports batch grows reps and
// ends to ~56 MiB — is left to the collector instead of riding in the
// pool for the life of the process.
const (
	maxPooledReports   = 4 * batchChunk
	maxPooledBodyBytes = defaultMaxBatchBytes / 16
)

// putBatchBuffers returns b to the pool unless a request grew it past
// what the pool keeps.
func putBatchBuffers(b *batchBuffers) {
	if cap(b.reps) > maxPooledReports || cap(b.ends) > maxPooledReports || cap(b.body) > maxPooledBodyBytes {
		return
	}
	batchBufPool.Put(b)
}

// sizedBody returns buf, or a fresh buffer when buf cannot hold a body
// of the declared length without growing: contentLength bytes (at most
// limit, past which the request is refused anyway) plus the one spare
// byte the read that reports EOF needs. An undeclared length (-1,
// chunked encoding) leaves sizing to readBodyInto's growth loop.
func sizedBody(buf []byte, contentLength, limit int64) []byte {
	if want := min(contentLength, limit) + 1; int64(cap(buf)) < want {
		return make([]byte, 0, want)
	}
	return buf
}

// readBodyInto reads r (bounded by limit+1 bytes) into buf, growing it
// as needed and returning the filled slice — io.ReadAll over a reusable
// buffer.
func readBodyInto(r io.Reader, limit int64, buf []byte) ([]byte, error) {
	lr := io.LimitReader(r, limit+1)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// BatchResponse is the JSON shape of a /report/batch reply — both the
// 200 success reply and the 400 rejection reply. On rejection, Accepted
// is the exact number of reports ingested before ingestion stopped
// (chunks already in flight when the rejection happened may have
// completed), and Error describes the first rejected report by its
// batch-global index. Clients should treat Accepted as authoritative
// and not blindly re-post a failed batch.
type BatchResponse struct {
	// Accepted is the number of reports ingested from the batch.
	Accepted int `json:"accepted"`
	// Error is the rejection reason; empty on success.
	Error string `json:"error,omitempty"`
	// TraceID is the request's trace id, set on rejection replies so a
	// client-side failure report can be joined against the server's
	// /debug/traces ring and logs.
	TraceID string `json:"trace_id,omitempty"`
}

// traceID returns the request's trace id, or "" when the middleware
// opened no span.
func traceID(r *http.Request) string {
	if span := trace.FromContext(r.Context()); span != nil {
		return span.TraceID().String()
	}
	return ""
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	if s.ingest == nil {
		s.rejectRole(w, r, "report ingestion", "single or edge")
		return
	}
	if !s.admitHealthy(w, r) {
		return
	}
	if s.adm != nil {
		if !s.admit(w, r, s.ins.shedBatch) {
			return
		}
		defer s.adm.release()
	}
	in := s.ingest
	// Bound whole batch requests in flight, not just the shard writes:
	// buffering and decoding a body costs up to maxBatch bytes plus the
	// decoded reports, so excess requests wait here (HTTP backpressure)
	// instead of amplifying memory without bound.
	in.batches <- struct{}{}
	defer func() { <-in.batches }()
	bufs := batchBufPool.Get().(*batchBuffers)
	bodyHandedToWAL := false
	defer func() {
		if bodyHandedToWAL {
			// The durable store's committer may still reference body
			// slices after the handler returns (group commit); hand the
			// buffer over instead of recycling it.
			bufs.body = nil
		}
		putBatchBuffers(bufs)
	}()
	body, err := readBodyInto(r.Body, in.maxBatch, sizedBody(bufs.body, r.ContentLength, in.maxBatch))
	bufs.body = body
	if err != nil {
		httpError(w, r, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(body)) > in.maxBatch {
		httpError(w, r, "batch too large", http.StatusRequestEntityTooLarge)
		return
	}
	tag, reps, ends, err := encoding.UnmarshalBatchEndsInto(body, maxBatchReports, bufs.reps, bufs.ends)
	if err != nil {
		httpError(w, r, "malformed batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	bufs.reps, bufs.ends = reps, ends
	if tag != s.tag {
		httpError(w, r, fmt.Sprintf("batch for protocol tag %d, deployment runs %d", tag, s.tag), http.StatusBadRequest)
		return
	}
	if s.ledger != nil {
		// The whole batch is charged atomically before any chunk is
		// dispatched: a batch the budget cannot cover is rejected in
		// full, never partially ingested.
		token := r.Header.Get(budgetTokenHeader)
		if token == "" {
			httpError(w, r, "windowed deployment enforces a per-round budget; send a stable client token in "+budgetTokenHeader, http.StatusBadRequest)
			return
		}
		_, chSpan := trace.StartSpan(r.Context(), "ledger.charge")
		chSpan.SetAttr("reports", len(reps))
		err := s.ledger.Charge(token, len(reps))
		if err != nil {
			chSpan.SetAttr("error", err.Error())
		}
		chSpan.End()
		if err != nil {
			s.setRetryAfter(w)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(BatchResponse{Error: err.Error(), TraceID: traceID(r)})
			return
		}
	}

	// From here on the store may hold slices of body past this request.
	bodyHandedToWAL = in.st != nil
	accepted, persistFailed, firstErr := in.ingestBatch(r.Context(), reps, body, ends)
	s.ins.ingestReports.Add(uint64(accepted))
	if firstErr != nil {
		s.ins.rejectedReports.Add(uint64(len(reps) - accepted))
		// The failure reply still carries the exact accepted count so
		// the client knows how much of the batch is in the estimate.
		// Report rejections are the client's fault (400); persistence
		// failures are the server's (500) and must not invite a retry
		// that would double-count the already-consumed reports.
		status := http.StatusBadRequest
		prefix := "rejected: "
		if persistFailed {
			status, prefix = http.StatusInternalServerError, "persistence failed: "
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(BatchResponse{
			Accepted: accepted,
			Error:    prefix + firstErr.Error(),
			TraceID:  traceID(r),
		})
		return
	}
	s.ins.ingestBatches.Inc()
	writeJSON(w, BatchResponse{Accepted: accepted})
}

// chargeBudget spends count reports against the caller's windowed
// privacy budget when one is configured: 400 without a token header,
// 429 when the token's window budget cannot cover the spend. Returns
// true when ingestion may proceed (including on deployments without a
// budget).
func (s *Server) chargeBudget(w http.ResponseWriter, r *http.Request, count int) bool {
	if s.ledger == nil {
		return true
	}
	token := r.Header.Get(budgetTokenHeader)
	if token == "" {
		httpError(w, r, "windowed deployment enforces a per-round budget; send a stable client token in "+budgetTokenHeader, http.StatusBadRequest)
		return false
	}
	_, span := trace.StartSpan(r.Context(), "ledger.charge")
	span.SetAttr("reports", count)
	err := s.ledger.Charge(token, count)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	if err != nil {
		s.setRetryAfter(w)
		httpError(w, r, err.Error(), http.StatusTooManyRequests)
		return false
	}
	return true
}

// setRetryAfter hints a budget-rejected client at the next bucket
// rotation, when the oldest recorded spend can slide out of the window.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int(s.win.Bucket().Seconds())+1))
}

// checkWindowParam validates an optional window= query parameter on the
// read endpoints: an analyst can pin the window span an answer must
// cover, and gets a 400 instead of a silently mismatched estimate when
// the deployment serves a different span (or a cumulative release).
func (s *Server) checkWindowParam(w http.ResponseWriter, r *http.Request) bool {
	raw := r.URL.Query().Get("window")
	if raw == "" {
		return true
	}
	want, err := time.ParseDuration(raw)
	if err != nil {
		httpError(w, r, "window must be a duration like 10m: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if s.win == nil {
		httpError(w, r, "deployment serves a cumulative release; no sliding window is configured", http.StatusBadRequest)
		return false
	}
	if got := s.win.Window(); want != got {
		httpError(w, r, fmt.Sprintf("deployment serves a %v window; cannot answer window=%v", got, want), http.StatusBadRequest)
		return false
	}
	return true
}

// MarginalResponse is the JSON shape of a /marginal reply.
type MarginalResponse struct {
	// Beta is the queried attribute mask.
	Beta uint64 `json:"beta"`
	// Cells holds the 2^|beta| estimated cell values in compact order.
	Cells []float64 `json:"cells"`
	// N is the number of reports behind the serving epoch.
	N int `json:"n"`
	// Epoch is the materialized view the answer came from.
	Epoch int64 `json:"epoch"`
}

func (s *Server) handleMarginal(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	if s.reads == nil {
		s.rejectRole(w, r, "marginal estimates", "single or coordinator")
		return
	}
	if !s.checkWindowParam(w, r) {
		return
	}
	betaStr := r.URL.Query().Get("beta")
	beta, err := strconv.ParseUint(betaStr, 10, 64)
	if err != nil {
		httpError(w, r, "beta must be a decimal attribute mask", http.StatusBadRequest)
		return
	}
	// Serve from the cached epoch: no lock, no snapshot, no
	// reconstruction — O(2^k) marginalization of cached tables at most.
	v := s.reads.engine.Current()
	tab, err := v.Marginal(beta)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, view.ErrBadQuery) {
			status = http.StatusBadRequest
		}
		httpError(w, r, err.Error(), status)
		return
	}
	writeJSON(w, MarginalResponse{Beta: beta, Cells: tab.Cells, N: v.N, Epoch: v.Epoch})
}

// QueryRequest is the JSON body of a /query request: one conjunction in
// Q, or a batch in Queries (both may be set; Q is evaluated first).
// Conjunctions use the internal/query syntax over positional attribute
// names, e.g. "a0=1 AND a3=0".
type QueryRequest struct {
	Q       string   `json:"q,omitempty"`
	Queries []string `json:"queries,omitempty"`
}

// QueryResult is one conjunction's answer within a QueryResponse. A
// malformed or out-of-domain query carries its error here, without
// failing the rest of the batch.
type QueryResult struct {
	// Query is the conjunction as submitted.
	Query string `json:"query"`
	// Beta is the attribute mask the conjunction touches (0 on parse
	// errors).
	Beta uint64 `json:"beta,omitempty"`
	// Fraction is the estimated fraction of users matching the query.
	Fraction float64 `json:"fraction"`
	// Count is Fraction scaled by the epoch's report count.
	Count float64 `json:"count"`
	// Error is the per-query failure; empty on success.
	Error string `json:"error,omitempty"`
}

// QueryResponse is the JSON shape of a /query reply.
type QueryResponse struct {
	// Epoch is the materialized view the answers came from.
	Epoch int64 `json:"epoch"`
	// N is the number of reports behind the serving epoch.
	N int `json:"n"`
	// Results holds one entry per submitted query, in order.
	Results []QueryResult `json:"results"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	if s.reads == nil {
		s.rejectRole(w, r, "conjunction queries", "single or coordinator")
		return
	}
	if !s.checkWindowParam(w, r) {
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, s.reads.maxQuery)).Decode(&req); err != nil {
		httpError(w, r, "malformed query body: "+err.Error(), http.StatusBadRequest)
		return
	}
	queries := req.Queries
	if req.Q != "" {
		queries = append([]string{req.Q}, queries...)
	}
	if len(queries) == 0 {
		httpError(w, r, "no queries: set q or queries", http.StatusBadRequest)
		return
	}
	// One epoch answers the whole batch, so the results are mutually
	// consistent even while refreshes land concurrently.
	v := s.reads.engine.Current()
	resp := QueryResponse{Epoch: v.Epoch, N: v.N, Results: make([]QueryResult, len(queries))}
	for i, res := range query.EvaluateStrings(v, v.Config().D, nil, queries) {
		out := QueryResult{Query: res.Query}
		if res.Err != nil {
			out.Error = res.Err.Error()
		} else {
			out.Beta = res.Conj.Beta()
			out.Fraction = res.Fraction
			out.Count = res.Fraction * float64(v.N)
		}
		resp.Results[i] = out
	}
	writeJSON(w, resp)
}

// handleState exports the node's canonical aggregation state: the local
// state for single and edge roles, the fleet state for a coordinator (so
// coordinators themselves can be pulled, stacking into aggregation
// trees). Version labels are read *before* the state they describe is
// captured: a label that trails the state only makes a future pull
// re-transfer, never skip, fresh data.
//
// Every reply is a componentized wire.ComponentFrame — one component per
// ingesting node (its merged shards, or its window) or, from a
// coordinator, per constituent node, each with its own version label —
// and the query names nothing but the base: 304 Not Modified when the
// caller's If-None-Match (or ?since=) base equals the current version, a
// delta frame shipping only the components that moved since a known,
// non-current base (each offered as its counter difference from the
// base's blob, dense or sparse, when this node still holds that blob and
// the difference is the smaller payload), and a full frame otherwise. An
// unknown base — expired from the history ring, or from before a restart
// (the version salt changed) — falls back to a full frame.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	base, haveBase := parseStateBase(r.Header.Get("If-None-Match"), r.URL.Query().Get("since"))
	if haveBase {
		// Short-circuit before any state is marshaled: an unchanged peer
		// costs headers, not an O(2^d) snapshot plus transfer.
		if ver := s.stateVersion(); base == ver {
			w.Header().Set("ETag", stateETag(ver))
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	exp, held, err := s.exportComponents()
	if err != nil {
		httpError(w, r, "exporting state components: "+err.Error(), http.StatusInternalServerError)
		return
	}
	total, err := sumComponentReports(exp.comps)
	if err != nil {
		httpError(w, r, "exporting state components: "+err.Error(), http.StatusInternalServerError)
		return
	}
	top := exp.top
	frame := wire.ComponentFrame{NodeID: s.nodeID, Version: top, N: total, Components: exp.comps}
	mode, encode := "full", exp.fullFrame
	if haveBase && base != top {
		if baseVec, ok := s.stateHist.lookup(base); ok {
			frame = deltaAgainst(frame, base, baseVec, exp.vec, held)
			mode, encode = "delta", wire.EncodeComponentFrame
		}
	}
	buf, err := encode(frame)
	if err != nil {
		httpError(w, r, "framing state components: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Header().Set("ETag", stateETag(top))
	w.Header().Set("X-LDP-Frame", mode)
	_, _ = w.Write(buf)
}

// handlePull runs one synchronous pull round over every configured peer
// (ignoring backoff schedules) and reports the resulting cluster state —
// the operational "converge now" lever, and what keeps cluster tests
// deterministic.
func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	if s.puller == nil {
		s.rejectRole(w, r, "peer pulls", "coordinator")
		return
	}
	s.puller.round(r.Context(), true)
	writeJSON(w, s.clusterStatus())
}

// ViewStatusResponse is the JSON shape of a /view/status or /refresh
// reply: the serving epoch and how far behind the live pipeline it is.
type ViewStatusResponse struct {
	// Epoch is the serving view's build sequence number.
	Epoch int64 `json:"epoch"`
	// ViewN is the number of reports in the serving epoch.
	ViewN int `json:"view_n"`
	// CurrentN is the live pipeline's report count (fleet-wide on a
	// coordinator).
	CurrentN int `json:"current_n"`
	// StalenessReports is CurrentN - ViewN (0 floor): reports not yet
	// visible to readers.
	StalenessReports int `json:"staleness_reports"`
	// AgeSeconds is how long the epoch has been serving.
	AgeSeconds float64 `json:"age_seconds"`
	// BuildMillis is how long the epoch took to build, end to end:
	// snapshot (or delta fold) plus reconstruction, consistency,
	// projection, and sub-cube — the root build span's duration, so
	// /view/status, the ldp_view_build_seconds histogram, and
	// /debug/traces report the same number.
	BuildMillis float64 `json:"build_ms"`
	// SnapshotMillis is how long capturing the epoch's source state took
	// (a delta fold on an incremental epoch).
	SnapshotMillis float64 `json:"snapshot_ms"`
	// Incremental reports whether the serving epoch's counter state was
	// reached by folding a delta into the state the engine held, rather
	// than captured from scratch. The served cells are the same either
	// way.
	Incremental bool `json:"incremental"`
	// FoldedComponents is how many source components (shards, peers)
	// were folded into the serving epoch's snapshot: only the changed
	// ones on an incremental epoch, every component on a from-scratch
	// capture, and 0 when the source has no delta support.
	FoldedComponents int `json:"folded_components,omitempty"`
	// IncrementalBuilds counts the epochs built from a delta fold since
	// startup. FullBuilds counts the ones whose counter state was
	// captured from scratch: the first epoch, then one per failed
	// refresh (a fold or build error), so on a delta-capable source a
	// value above 1 means refreshes have been failing; a source without
	// delta support counts every epoch here.
	IncrementalBuilds int64 `json:"incremental_builds"`
	FullBuilds        int64 `json:"full_builds"`
	// Tables is the number of materialized k-way tables.
	Tables int `json:"tables"`
	// RecoveredReports is the number of reports restored from the
	// durable store at startup (0 for memory-only deployments).
	RecoveredReports int `json:"recovered_reports,omitempty"`
	// FromRecovery reports whether the serving epoch contains state
	// restored from the durable store.
	FromRecovery bool `json:"from_recovery,omitempty"`
	// Peers describes, per configured peer, how much of that peer's
	// state the serving epoch contains versus what the fleet holds now
	// (coordinator only).
	Peers []PeerViewStatus `json:"peers,omitempty"`
	// Window describes the sliding-window ring behind the serving view
	// (windowed deployments only).
	Window *WindowStatus `json:"window,omitempty"`
}

// PeerViewStatus is one peer's per-epoch staleness entry in a
// coordinator's /view/status reply.
type PeerViewStatus struct {
	// URL is the configured peer base URL.
	URL string `json:"url"`
	// NodeID is the peer's node id as of the serving epoch (or the
	// latest pull when the epoch predates the peer).
	NodeID string `json:"node_id,omitempty"`
	// ViewN and ViewVersion label the peer's state inside the serving
	// epoch (0 when the epoch contains nothing from this peer).
	ViewN       int    `json:"view_n"`
	ViewVersion uint64 `json:"view_version"`
	// CurrentN and CurrentVersion label the latest accepted pull.
	CurrentN       int    `json:"current_n"`
	CurrentVersion uint64 `json:"current_version"`
	// StalenessReports is CurrentN - ViewN (0 floor): this peer's
	// reports not yet visible to readers.
	StalenessReports int `json:"staleness_reports"`
	// Components is how many named state components of this peer the
	// serving epoch was folded from (an edge's shards, a mid-tier
	// coordinator's pass-through constituents).
	Components int `json:"components,omitempty"`
	// Health is the peer's circuit-breaker state (healthy, backing_off,
	// quarantined); a quarantined peer's view contribution is its last
	// good pull, frozen until a half-open probe succeeds.
	Health string `json:"health,omitempty"`
}

func (s *Server) viewStatus(v *view.View) ViewStatusResponse {
	n := s.reads.src.N()
	recovered := 0
	if s.ingest != nil {
		recovered = s.ingest.recovered
	}
	stats := s.reads.engine.Stats()
	resp := ViewStatusResponse{
		Epoch:             v.Epoch,
		ViewN:             v.N,
		CurrentN:          n,
		StalenessReports:  v.Staleness(n),
		AgeSeconds:        v.Age().Seconds(),
		BuildMillis:       float64(v.BuildDuration.Nanoseconds()) / 1e6,
		SnapshotMillis:    float64(v.SnapshotDuration.Nanoseconds()) / 1e6,
		Incremental:       v.Incremental,
		FoldedComponents:  v.FoldedComponents,
		IncrementalBuilds: stats.IncrementalBuilds,
		FullBuilds:        stats.FullBuilds,
		Tables:            v.Tables(),
		RecoveredReports:  recovered,
		// Every epoch is built from an aggregator seeded with the
		// recovered state, so any epoch of a recovered deployment
		// contains it.
		FromRecovery: recovered > 0,
	}
	if s.fleet != nil {
		resp.Peers = s.peerViewStatus(v)
	}
	resp.Window = s.windowStatus()
	return resp
}

// peerViewStatus joins the serving epoch's composition (what each peer
// contributed to the view) with the fleet's latest pulls (what each
// peer has now), yielding per-peer staleness.
func (s *Server) peerViewStatus(v *view.View) []PeerViewStatus {
	inView := make(map[string]view.Component, len(v.Components))
	for _, c := range v.Components {
		inView[c.URL] = c
	}
	current, _ := s.fleet.status()
	out := make([]PeerViewStatus, 0, len(current))
	for _, cur := range current {
		pvs := PeerViewStatus{
			URL:            cur.URL,
			NodeID:         cur.NodeID,
			CurrentN:       cur.N,
			CurrentVersion: cur.Version,
			Health:         cur.Health,
		}
		if c, ok := inView[cur.URL]; ok {
			pvs.ViewN = c.N
			pvs.ViewVersion = c.Version
			pvs.Components = c.Parts
			if c.ID != "" {
				pvs.NodeID = c.ID
			}
		}
		if st := pvs.CurrentN - pvs.ViewN; st > 0 {
			pvs.StalenessReports = st
		}
		out = append(out, pvs)
	}
	return out
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	if s.reads == nil {
		s.rejectRole(w, r, "view refreshes", "single or coordinator")
		return
	}
	v, err := s.reads.engine.RefreshContext(r.Context())
	if err != nil {
		httpError(w, r, "refresh failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, s.viewStatus(v))
}

func (s *Server) handleViewStatus(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	if s.reads == nil {
		s.rejectRole(w, r, "view status", "single or coordinator")
		return
	}
	writeJSON(w, s.viewStatus(s.reads.engine.Current()))
}

// ViewDiagnosticsResponse is the JSON shape of a /view/diagnostics
// reply: the serving epoch's accuracy diagnostics — the paper's
// theoretical TV error bound at the deployment's parameters, the L1
// mass the consistency stage moved, and the inter-epoch marginal drift
// (see view.Diagnostics for the field semantics).
type ViewDiagnosticsResponse struct {
	// Epoch is the serving view's build sequence number.
	Epoch int64 `json:"epoch"`
	// N is the number of reports in the serving epoch.
	N int `json:"n"`
	// Protocol names the deployment's protocol.
	Protocol string `json:"protocol"`
	view.Diagnostics
}

func (s *Server) handleViewDiagnostics(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	if s.reads == nil {
		s.rejectRole(w, r, "view diagnostics", "single or coordinator")
		return
	}
	v := s.reads.engine.Current()
	writeJSON(w, ViewDiagnosticsResponse{Epoch: v.Epoch, N: v.N, Protocol: v.Protocol, Diagnostics: v.Diag})
}

// HealthResponse is the JSON shape of a /healthz reply.
type HealthResponse struct {
	Status string `json:"status"`
	Role   string `json:"role"`
	Epoch  int64  `json:"epoch"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	resp := HealthResponse{Status: "ok", Role: s.role.String()}
	if s.reads != nil {
		resp.Epoch = s.reads.engine.Epoch()
	}
	writeJSON(w, resp)
}

// DurabilityStatus is the durability section of a /status reply.
type DurabilityStatus struct {
	// Fsync is the WAL durability policy (always, interval, off).
	Fsync string `json:"fsync"`
	// WALSegments and WALBytes describe the live write-ahead log.
	WALSegments int   `json:"wal_segments"`
	WALBytes    int64 `json:"wal_bytes"`
	// LastSnapshotReports is the report count of the newest counter
	// snapshot (0 before the first snapshot).
	LastSnapshotReports int `json:"last_snapshot_reports"`
	// SinceSnapshotReports is the number of reports appended to the WAL
	// after the newest snapshot.
	SinceSnapshotReports int `json:"since_snapshot_reports"`
	// RecoveredReports is the number of reports restored at startup.
	RecoveredReports int `json:"recovered_reports"`
	// TornTailTruncations counts torn WAL records dropped at startup.
	TornTailTruncations int `json:"torn_tail_truncations,omitempty"`
	// LastSnapshotError is the most recent background-compaction
	// failure, if any.
	LastSnapshotError string `json:"last_snapshot_error,omitempty"`
}

// StatusResponse is the JSON shape of a /status reply. Durability is
// present only for deployments with a store; Cluster describes the
// node's role and, on a coordinator, every configured peer.
type StatusResponse struct {
	Protocol   string  `json:"protocol"`
	D          int     `json:"d"`
	K          int     `json:"k"`
	Epsilon    float64 `json:"epsilon"`
	N          int     `json:"n"`
	ReportBits int     `json:"report_bits"`
	Shards     int     `json:"shards"`
	// Health is the durability state machine's state (healthy, degraded,
	// recovering).
	Health     string            `json:"health"`
	Durability *DurabilityStatus `json:"durability,omitempty"`
	Cluster    *ClusterStatus    `json:"cluster,omitempty"`
	Window     *WindowStatus     `json:"window,omitempty"`
}

// clusterStatus assembles the /status cluster block.
func (s *Server) clusterStatus() *ClusterStatus {
	cs := &ClusterStatus{
		Role:   s.role.String(),
		NodeID: s.nodeID,
	}
	cs.StateVersion = s.stateVersion()
	if s.fleet != nil {
		cs.PullIntervalSeconds = s.puller.interval.Seconds()
		cs.Peers, cs.PeerStateSaveError = s.fleet.status()
	}
	return cs
}

// stateVersion is the label a /state export carries right now: the
// mutation counter (fleet-wide on a coordinator) offset by the
// per-process salt. It must be read *before* the state snapshot it
// labels — a trailing label makes a future pull re-transfer, never
// skip, fresh data.
func (s *Server) stateVersion() uint64 {
	if s.fleet != nil {
		return s.verSalt + s.fleet.version()
	}
	if s.win != nil {
		return s.verSalt + s.win.Version()
	}
	return s.verSalt + s.agg.Version()
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	cfg := s.protocol.Config()
	resp := StatusResponse{
		Protocol:   s.protocol.Name(),
		D:          cfg.D,
		K:          cfg.K,
		Epsilon:    cfg.Epsilon,
		N:          s.N(), // atomic reads; no lock
		ReportBits: s.protocol.CommunicationBits(),
		Shards:     s.agg.Shards(),
		Health:     s.Health(),
		Cluster:    s.clusterStatus(),
		Window:     s.windowStatus(),
	}
	if st := s.Store(); st != nil {
		stat := st.Status()
		resp.Durability = &DurabilityStatus{
			Fsync:                stat.Fsync,
			WALSegments:          stat.Segments,
			WALBytes:             stat.WALBytes,
			LastSnapshotReports:  stat.SnapshotReports,
			SinceSnapshotReports: stat.SinceSnapshot,
			RecoveredReports:     stat.Recovery.Reports,
			TornTailTruncations:  stat.Recovery.TornTailTruncations,
			LastSnapshotError:    stat.LastSnapshotError,
		}
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing recoverable remains.
		return
	}
}
