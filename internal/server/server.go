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
// What a role runs is decided in two places. Its endpoints are the
// routes table in role.go: each route's path, method and serving roles,
// from which Handler builds the mux, the 405 and 403 gates and the
// per-route request metrics. Its background loops — the view engine's
// interval refresh, the coordinator's peer pulls, window rotation and the
// degraded-mode disk probe — are started at the end of NewWithOptions,
// each through loop.Every, and Close stops and joins them all before
// the store closes (whose own interval fsync timer is the fifth loop).
//
// Because aggregation is associative integer counting and the state
// codec is canonical, a coordinator's view over E edges splitting a
// report stream is byte-identical to a single node consuming the whole
// stream — including after an edge crashes and recovers from its WAL.
// See internal/cluster for the exchange semantics.
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
// period: the epoch advances every Options.RefreshInterval of wall time
// and on explicit POST /refresh. /view/status reports the serving
// epoch, its report count, and how many reports have arrived since it
// was built — and, on a coordinator, the per-peer composition of the
// serving epoch.
//
// # Ingestion architecture
//
// An ingesting node owns one window ring (internal/window), whose live
// bucket is a core.ShardedAggregator: P per-shard accumulators behind P
// mutexes, merged on demand. It is no core.Aggregator: ingestion calls
// its ConsumeBatch, and readers take its Snapshot (one sequential
// aggregator) or fold its shards as parts. A cumulative node's ring
// never seals. Both
// ingest endpoints pass one admission gate, sized from the shard count;
// a /report is a batch of one, and a batch is decoded outside any lock
// and its chunks ingested in order, each into a round-robin shard under
// one lock acquisition, so batches amortize both HTTP and locking
// overhead and concurrent requests spread across cores.
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
// On construction the server seeds its ring with the state the store
// recovered — so the view engine's first epoch already serves
// everything that survived — and registers the ring's live bucket as
// the store's snapshot source. Close flushes the log and writes a
// final snapshot. GET /status reports the WAL footprint and GET
// /view/status whether the serving epoch contains recovered reports.
// Without a store the deployment is memory-only, exactly as before.
// A coordinator does not ingest, so it takes no Store; its durable
// artifact is the per-peer state snapshot in Options.ClusterDir: each
// peer's held state as the full frame it was accepted as, which a
// restart accepts through the same validation and guards as a pull
// before re-pulls replace it.
//
// # Batch semantics
//
// A batch is not atomic: exactly the reports before the first rejected
// one remain consumed, matching the Aggregator.ConsumeBatch contract,
// and nothing after it is ingested. The 400 rejection reply is a
// BatchResponse carrying that count plus the rejection, identified by
// its batch-global index. Under local differential privacy every report
// is individually valid or individually rejected, so partial ingestion
// never corrupts the estimate — it only under-counts the failed batch.
//
// # Fixed limits
//
// Some bounds are constants, not Options: a report frame is at most
// encoding.MaxFrameBytes, 16 KiB (413 for a larger /report body, 400 for
// a larger frame in a batch), a /report/batch body at most 16 MiB (413
// beyond), a /query body at most 1 MiB, a pulled
// /state body at most 256 MiB, and one peer pull at most 30 s; three
// consecutive poison pulls quarantine a peer, which is then probed once
// every 16 pull intervals; the ingest admission gate admits one request
// per shard (Options.Shards) and queues ingestQueuePerShard (64) more
// per shard; a degraded node probes its disk every
// defaultDegradedProbe (2 s), and the store's FsyncInterval policy
// fsyncs every 100 ms; the /debug/traces ring holds
// trace.DefaultCapacity traces, and a request taking
// trace.SlowThreshold (1 s) or more is logged at warn with its trace.
// Each epoch gets view.Options' defaults: consistency and simplex
// projections alternated until the tables agree, at most 128 rounds.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/cluster"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/loop"
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

// maxBatchBytes bounds a /report/batch body: 16 MiB holds over a
// million typical frames (InpHT at d=20 is a few bytes per report).
const maxBatchBytes = 16 << 20

// maxQueryBytes bounds a /query body: 1 MiB of JSON holds tens of
// thousands of conjunctions, far beyond any sane analyst batch.
const maxQueryBytes = 1 << 20

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
// (a single-role, memory-only node). The body, pull, trace, admission
// and disk-probe limits are fixed (see the package doc's "Fixed
// limits").
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
	// ClusterDir, when set on a coordinator, persists the latest
	// accepted peer states (atomically, CRC-checked) so a restart
	// resumes from them instead of an empty fleet. Rejected for other
	// roles (their durability is Store).
	ClusterDir string

	// Shards is the number of per-shard accumulators; <= 0 selects
	// GOMAXPROCS. It also sizes the ingest admission gate: one in-flight
	// request per shard and ingestQueuePerShard waiting per shard.
	Shards int
	// RefreshInterval rebuilds the view this often; <= 0 means the view
	// only advances on POST /refresh.
	RefreshInterval time.Duration
	// Store, when non-nil, makes ingestion durable: accepted reports are
	// appended to its write-ahead log before the ack, the recovered
	// state seeds the ring, and the ring's live bucket becomes the
	// store's snapshot source. The server owns the store from here on:
	// Server.Close closes it. Rejected for RoleCoordinator, which does
	// not ingest.
	Store *store.Store

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
	// correlate), degraded-mode events at warn. Nil discards them.
	Log *slog.Logger

	// degradedProbe is the degraded-mode disk-probe cadence; <= 0
	// selects defaultDegradedProbe. Only tests set it, to revive a
	// degraded node without waiting seconds.
	degradedProbe time.Duration
}

// Server exposes one protocol deployment over HTTP. Safe for concurrent
// use by any number of HTTP client goroutines.
type Server struct {
	protocol core.Protocol
	tag      encoding.Tag
	role     Role
	nodeID   string

	ring   *window.Ring    // ingesting deployments only; never seals when cumulative
	src    cluster.Source  // ring or fleet: whichever this node holds
	shards int             // resolved aggregation width
	ledger *privacy.Ledger // windowed deployments with a RoundEps budget

	// lastRotateErr is the most recent background window advance
	// failure (a string), for /status.
	lastRotateErr atomic.Value

	ingest   *ingestPipeline   // ingesting roles only
	engine   *view.Engine      // serving roles only: the materialized view over src
	exporter *cluster.Exporter // exports src on GET /state
	fleet    *cluster.Fleet    // pulling roles only
	puller   *cluster.Puller   // pulling roles only

	// stops stops the node's background loops, in the order they
	// started; Close runs them in reverse.
	stops []func()

	ins    *serverInstruments // always non-nil; hot paths update unconditionally
	adm    *admission         // the ingest gate; idle on a coordinator
	deg    *degrader          // WAL-failure degradation; nil without a durable ingest path
	reg    *metrics.Registry  // the /metrics registry, assembled at construction
	tracer *trace.Tracer      // always non-nil; roots one span per request
	log    *slog.Logger       // never nil; Options.Log, or a discarding logger
}

// CheckServed returns p's wire tag, or refuses by name a protocol that
// cannot fold (InpEM, InpOLH) or whose tag is retired (InpRR).
// NewWithOptions runs it, and ldpserver before it touches -data-dir.
func CheckServed(p core.Protocol) (encoding.Tag, error) {
	if err := core.CheckFolds(p); err != nil {
		return 0, err
	}
	return encoding.TagForProtocol(p.Name())
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
	tag, err := CheckServed(p)
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
	log := opts.Log
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		protocol: p,
		tag:      tag,
		role:     opts.Role,
		nodeID:   nodeID,
		shards:   core.ResolveShards(opts.Shards),
		ins:      newServerInstruments(),
		log:      log.With("node", nodeID),
	}
	s.tracer = trace.New(func(traceID, rootName string, d time.Duration) {
		s.log.Warn("slow trace", "trace", traceID, "root", rootName, "dur", d)
	})
	// Every role holds the ingest gate; a coordinator's stays idle.
	s.adm = newAdmission(s.shards)
	// The node's one state source. An ingesting node's ring is also its
	// ingest target, recovery seed and store snapshot source; a
	// coordinator ingests nothing.
	if pulling.has(s.role) {
		if s.fleet, err = cluster.NewFleet(p, opts.Peers, opts.ClusterDir, nodeID); err != nil {
			return fail(err)
		}
		s.src = s.fleet
	} else {
		if s.ring, err = window.NewRing(p, window.Options{
			Window: opts.Window,
			Bucket: opts.Bucket,
			Shards: s.shards,
		}); err != nil {
			return fail(err)
		}
		s.src = s.ring
		if opts.RoundEps > 0 { // validated to come with a window
			if s.ledger, err = privacy.NewLedger(opts.RoundEps, p.Config().Epsilon, int(opts.Window/opts.Bucket)); err != nil {
				return fail(err)
			}
		}
		if s.ingest, err = s.newIngestPipeline(opts); err != nil {
			return fail(err)
		}
		if opts.Store != nil {
			s.deg = newDegrader(opts.Store, s.log, opts.degradedProbe)
		}
	}
	if s.exporter, err = cluster.NewExporter(p, s.src, nodeID); err != nil {
		return fail(err)
	}
	// The role's loops. Each starts only once everything it touches is
	// built: pulls after the initial epoch, so the engine never races
	// fleet mutations during construction, and rotation after the
	// recovered state is seeded too, so the first Advance never races
	// construction.
	if serving.has(s.role) {
		if s.engine, err = view.NewEngine(s.src, p, view.EngineOptions{RefreshInterval: opts.RefreshInterval, Tracer: s.tracer}); err != nil {
			return fail(err)
		}
		s.stops = append(s.stops, s.engine.Close)
	}
	if s.fleet != nil {
		s.puller = cluster.NewPuller(s.fleet, opts.PullInterval, s.tracer, s.log)
		s.stops = append(s.stops, s.puller.Start())
	}
	if s.windowed() {
		s.stops = append(s.stops, loop.Every(max(s.ring.Bucket()/4, 10*time.Millisecond), s.rotate))
	}
	if s.deg != nil {
		s.stops = append(s.stops, loop.Every(s.deg.interval, s.deg.tick))
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

// Close stops the node's background loops — window rotation, the
// degraded-mode probe, the coordinator's peer pulls and the view
// engine's interval refresh — and, for a durable deployment, flushes the
// write-ahead log and writes a final counter snapshot (a coordinator
// persists its peer states instead). The server's handlers remain
// usable (serving the last published epoch, rejecting ingestion); Close
// is idempotent.
func (s *Server) Close() error {
	// Every loop is joined before the store goes away: an Advance
	// mid-close would rotate a closed WAL, and a degraded-mode Recover
	// would race the final snapshot.
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	if st := s.Store(); st != nil {
		return st.Close()
	}
	return nil
}

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
func (s *Server) View() *view.Engine { return s.engine }

// N returns the number of reports behind this node: local ingestion for
// single and edge roles, the fleet-wide count for a coordinator.
// Lock-free.
func (s *Server) N() int { return s.src.N() }

// windowed reports whether the node serves a sliding window rather than
// the cumulative release.
func (s *Server) windowed() bool { return s.ring != nil && s.ring.Window() > 0 }

// Shards returns the number of aggregation shards of the deployment.
func (s *Server) Shards() int { return s.shards }

// Handler returns the deployment's HTTP handler: the endpoints of the
// routes table (role.go), each behind its method and role gates.
// Endpoints outside the node's role answer 403 naming the role. Every
// request passes through the instrumentation middleware (per-endpoint
// latency and status-class counters, visible on /metrics), which also
// roots a trace span per request and echoes its id as X-LDP-Trace-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.Handle(rt.path, s.dispatch(rt))
	}
	return s.instrument(mux)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Handler().ServeHTTP(w, r)
}

func (s *Server) serveTraces(w http.ResponseWriter, r *http.Request) {
	s.tracer.Handler().ServeHTTP(w, r)
}

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

// traceID returns the request's trace id, or "" when the middleware
// opened no span.
func traceID(r *http.Request) string {
	if span := trace.FromContext(r.Context()); span != nil {
		return span.TraceID().String()
	}
	return ""
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
	w.Header().Set("Retry-After", strconv.Itoa(int(s.ring.Bucket().Seconds())+1))
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
	if !s.windowed() {
		httpError(w, r, "deployment serves a cumulative release; no sliding window is configured", http.StatusBadRequest)
		return false
	}
	if got := s.ring.Window(); want != got {
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
	v := s.engine.Current()
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
	if !s.checkWindowParam(w, r) {
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxQueryBytes)).Decode(&req); err != nil {
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
	v := s.engine.Current()
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
// trees). The 304, delta and full replies are cluster.Exporter's.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if err := s.exporter.ServeState(w, r); err != nil {
		httpError(w, r, err.Error(), http.StatusInternalServerError)
	}
}

// handlePull runs one synchronous pull round over every configured peer
// (ignoring backoff schedules) and reports the resulting cluster state —
// the operational "converge now" lever, and what keeps cluster tests
// deterministic.
func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	s.puller.Round(r.Context(), true)
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
	// FoldedComponents is how many source components were folded into
	// the serving epoch's state: shards on a cumulative node, buckets on a
	// windowed one, peer components on a coordinator (which has no shards
	// of its own). Only the changed ones on an incremental epoch, every
	// component on a from-scratch capture.
	FoldedComponents int `json:"folded_components,omitempty"`
	// IncrementalBuilds counts the epochs built from a delta fold since
	// startup. FullBuilds counts the ones whose counter state was
	// captured from scratch: the first epoch, then one per failed
	// refresh (a fold or build error), so a value above 1 means refreshes
	// have been failing.
	IncrementalBuilds int64 `json:"incremental_builds"`
	FullBuilds        int64 `json:"full_builds"`
	// Tables is the number of materialized k-way tables.
	Tables int `json:"tables"`
	// RecoveredReports is the number of reports restored from the
	// durable store at startup (0 for memory-only deployments).
	RecoveredReports int `json:"recovered_reports,omitempty"`
	// FromRecovery reports whether the serving epoch contains state
	// restored from the durable store: on a windowed node it clears once
	// the window slides past every recovered bucket and an epoch built
	// after that serves.
	FromRecovery bool `json:"from_recovery,omitempty"`
	// Peers describes, per configured peer, how much of that peer's
	// state the serving epoch contains versus what the fleet holds now
	// (coordinator only).
	Peers []cluster.PeerViewStatus `json:"peers,omitempty"`
	// Window describes the sliding-window ring behind the serving view
	// (windowed deployments only).
	Window *WindowStatus `json:"window,omitempty"`
}

func (s *Server) viewStatus(v *view.View) ViewStatusResponse {
	n := s.src.N()
	recovered := 0
	if s.ingest != nil {
		recovered = s.ingest.recovered
	}
	stats := s.engine.Stats()
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
		FromRecovery:      v.FromRecovery,
	}
	if s.fleet != nil {
		resp.Peers = s.fleet.ViewStatus(v)
	}
	resp.Window = s.windowStatus()
	return resp
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	v, err := s.engine.RefreshContext(r.Context())
	if err != nil {
		httpError(w, r, "refresh failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, s.viewStatus(v))
}

func (s *Server) handleViewStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.viewStatus(s.engine.Current()))
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
	v := s.engine.Current()
	writeJSON(w, ViewDiagnosticsResponse{Epoch: v.Epoch, N: v.N, Protocol: v.Protocol, Diagnostics: v.Diag})
}

// HealthResponse is the JSON shape of a /healthz reply.
type HealthResponse struct {
	Status string `json:"status"`
	Role   string `json:"role"`
	Epoch  int64  `json:"epoch"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", Role: s.role.String()}
	if s.engine != nil {
		resp.Epoch = s.engine.Epoch()
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
	Cluster    *cluster.Status   `json:"cluster,omitempty"`
	Window     *WindowStatus     `json:"window,omitempty"`
}

// clusterStatus assembles the /status cluster block.
func (s *Server) clusterStatus() *cluster.Status {
	cs := &cluster.Status{Role: s.role.String(), NodeID: s.nodeID, StateVersion: s.exporter.Version()}
	if s.puller != nil {
		s.puller.Describe(cs)
	}
	return cs
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	cfg := s.protocol.Config()
	resp := StatusResponse{
		Protocol:   s.protocol.Name(),
		D:          cfg.D,
		K:          cfg.K,
		Epsilon:    cfg.Epsilon,
		N:          s.N(), // atomic reads; no lock
		ReportBits: s.protocol.CommunicationBits(),
		Shards:     s.shards,
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

// jsonContentType is the Content-Type header value of every JSON reply,
// shared by all of them (capped, so an append copies it).
var jsonContentType = []string{"application/json"}[:1:1]

func writeJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = jsonContentType
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing recoverable remains.
		return
	}
}
