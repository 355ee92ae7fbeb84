// Command ldpserver runs the HTTP collection endpoint for one marginal
// release deployment: clients POST wire-encoded reports to /report and
// analysts read cached marginal and conjunction estimates.
//
// Usage:
//
//	ldpserver -addr :8080 -protocol InpHT -d 8 -k 2 -eps 1.1 \
//	    -shards 0 -refresh-interval 5s \
//	    -data-dir /var/lib/ldpserver -fsync interval
//
// -shards also sizes the ingest admission gate. The fsync period
// (100 ms), the WAL compaction period (a snapshot every 1,000,000
// reports), the degraded-mode disk-probe cadence (2 s) and the
// slow-trace threshold (1 s, trace.SlowThreshold) are fixed; no flag
// tunes them.
//
// Endpoints:
//
//	POST /report            binary report frame (internal/encoding)
//	POST /report/batch      length-prefixed report frames (encoding.MarshalBatch)
//	GET  /marginal?beta=N   cached marginal over attribute mask N
//	POST /query             JSON conjunction batch against the cached epoch
//	POST /refresh           build and publish the next epoch now
//	GET  /view/status       serving epoch, staleness, build time
//	GET  /view/diagnostics  accuracy diagnostics: theoretical TV bound, consistency correction, drift
//	GET  /status            deployment metadata and report count
//	GET  /healthz           liveness probe
//	GET  /readyz            readiness probe (503 until ready to serve)
//	GET  /metrics           Prometheus text exposition
//	GET  /debug/traces      completed request and lifecycle traces (JSON)
//
// -protocol selects InpPS, InpHT, MargRR, MargPS or MargHT from the
// paper, or the InpHTCMS sketch: integer counter states that the node
// can copy and unmerge exactly. ldpserver refuses the rest by name at
// startup, before -data-dir is touched; ldpmarg and cmd/experiments run
// them. They are InpRR, whose report is a 2^d-bit bitmap and whose error
// bound InpHT beats at every shape, and the InpEM and InpOLH baselines,
// which keep raw reports and cannot be unmerged.
//
// Ingestion is sharded across -shards per-shard accumulators (0 selects
// GOMAXPROCS) so multi-core hardware ingests reports in parallel. Reads
// are served from a materialized view rebuilt every -refresh-interval
// of wall time (0: the view only advances on POST /refresh).
// Refreshes are incremental — only aggregation shards (and, on a
// coordinator, peers) that changed since the serving epoch are folded
// into the counter state the view is built from; the folds are exact,
// so every epoch equals a from-scratch build of the same state bit for
// bit, and only the first epoch and one following a failed refresh
// capture that state from scratch (see GET /view/status for per-epoch
// build kind and cost). SIGINT/SIGTERM drain in-flight requests before
// exiting.
//
// -pprof-addr serves net/http/pprof on a separate listener (disabled by
// default), so hot-path regressions can be profiled in place without
// exposing the debug handlers on the service port. The side listener
// also serves GET /metrics and GET /debug/traces, so scraping and trace
// inspection keep working when the service listener is saturated by
// ingest.
//
// Every request is traced: the middleware roots a span (joining the
// caller's W3C traceparent when present — a coordinator's pull and the
// edge's /state handler share one trace id), echoes the id as
// X-LDP-Trace-Id, and completed traces land in the bounded ring behind
// GET /debug/traces. -log-level tunes the log/slog key=value logging on
// stderr (debug, info, warn, error or off); debug adds one line per
// request carrying its trace id.
//
// One admission gate, sized from -shards, bounds how many /report and
// /report/batch requests are processed at once (one per shard) and how
// many may queue behind them (64 per shard, the server's
// ingestQueuePerShard); arrivals beyond both are shed with 429 +
// Retry-After and counted in ldp_ingest_shed_total on /metrics, so
// overload degrades into visible, retryable refusals instead of
// unbounded goroutine and memory growth.
//
// A durable node that loses its disk degrades instead of falling over:
// a persistent WAL failure flips the server into read-only mode —
// ingest is shed with 503 + Retry-After while reads, /state, and
// /metrics keep serving from memory — and a background probe re-tests
// the disk every 2 s (the server's defaultDegradedProbe), reviving the
// log and re-snapshotting the in-memory state once writes succeed
// again. A coordinator likewise survives a misbehaving peer: after three
// consecutive pulls whose frames fail CRC, decode, or fold, the peer is
// quarantined — its last good contribution keeps serving, regular pulls
// stop, and a half-open probe retries every 16 pull intervals
// (-pull-interval). -fault-spec arms deterministic fault injection
// at named sites (WAL appends, pull bodies, ...) for failure drills.
// The "Failure modes and degraded operation" section of the package
// documentation is the operator runbook for both state machines.
//
// With -data-dir set the deployment is durable: accepted reports are
// appended to a write-ahead log before the ack (fsynced per -fsync:
// always, every 100 ms under interval — the store's defaultFsyncPeriod —
// or off), the counters are compacted into snapshots every 1,000,000
// reports (snapshotEveryN; a failed compaction is retried after as many
// more) and on shutdown, and a restart recovers the full aggregation
// state from the directory — the startup log reports how many reports
// were recovered, from which snapshot, how many WAL segments were
// replayed, whether a torn tail was truncated, how many corrupt
// snapshots were skipped, and how many buckets were rebuilt from their
// WAL segments because their bucket files were corrupt. Without
// -data-dir the deployment lives in memory only, as before.
//
// -window turns the deployment into a continual release: reports land
// in a ring of time-bucketed sub-aggregators and every estimate covers
// only the last -window of wall time. The live bucket seals every
// -bucket (which must divide -window evenly) and sealed buckets expire
// one at a time. With -data-dir each sealed bucket is written once as
// its own file and an expired bucket's file and WAL segments are
// deleted, so a restart rebuilds the ring bucket by bucket and serves
// what the node served before the crash. -round-eps additionally
// caps each client's composed privacy loss per window: every report
// spends the deployment epsilon against the client's X-LDP-Token, and
// over-budget reports are rejected with 429 until the window slides
// (the ledger is memory-only: a restart forgets spend).
// Analysts can pin the expected span with window= on /marginal and
// /query and read the ring's shape from GET /status and /view/status.
//
// -role selects the node's place in a cluster: "single" (default) runs
// the whole pipeline in one process; "edge" ingests and WAL-logs
// reports and exports its canonical aggregator state on GET /state;
// "coordinator" pulls GET /state from every -peers URL on the
// -pull-interval cadence (with per-peer exponential backoff on
// failure), merges the fleet, and serves /marginal and /query over the
// merged state. For a coordinator, -data-dir persists the latest
// accepted peer states so a restart resumes without waiting for
// re-pulls; a recovered state passes the same validation and guards as
// a pulled one. A two-edge cluster:
//
//	ldpserver -role edge -addr :8081 -data-dir /var/lib/ldp-e1 ...
//	ldpserver -role edge -addr :8082 -data-dir /var/lib/ldp-e2 ...
//	ldpserver -role coordinator -addr :8080 \
//	    -peers http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -pull-interval 5s -data-dir /var/lib/ldp-coord ...
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ldpmarginals"
	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/server"
	"ldpmarginals/internal/store"
)

// snapshotEveryN is how many reports a durable node appends to its WAL
// before compacting them into a counter snapshot.
const snapshotEveryN = 1_000_000

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		protocol  = flag.String("protocol", "InpHT", "protocol: InpPS, InpHT, MargRR, MargPS, MargHT or InpHTCMS (InpRR and the InpEM and InpOLH baselines run under ldpmarg)")
		d         = flag.Int("d", 8, "number of binary attributes")
		k         = flag.Int("k", 2, "largest marginal size supported")
		eps       = flag.Float64("eps", math.Log(3), "privacy budget epsilon")
		shards    = flag.Int("shards", 0, "aggregation shards, also the ingest admission gate: one request in flight and 64 queued per shard (0 = GOMAXPROCS)")
		interval  = flag.Duration("refresh-interval", 5*time.Second, "rebuild the view this often (0 = only on POST /refresh)")
		pprofAddr = flag.String("pprof-addr", "",
			"serve net/http/pprof and /metrics on this separate address (e.g. 127.0.0.1:6060; empty = disabled)")

		dataDir   = flag.String("data-dir", "", "durable directory: WAL+snapshots for single/edge, peer-state snapshot for coordinator (empty = memory-only)")
		fsyncMode = flag.String("fsync", "interval", "WAL fsync policy: always, interval (every 100ms), or off")

		windowSpan = flag.Duration("window", 0, "serve a sliding window of this span instead of the cumulative release (requires -bucket; single and edge roles)")
		bucketSpan = flag.Duration("bucket", 0, "window rotation granularity; must divide -window evenly")
		roundEps   = flag.Float64("round-eps", 0, "per-client epsilon budget per window (0 = no budget; requires -window; clients identify via the X-LDP-Token header); the ledger is per node and in memory only: a restart forgets spend, and a token posting to two edges spends twice (see ROADMAP.md, \"The ledger survives a restart\")")

		role         = flag.String("role", "single", "node role: single, edge, or coordinator")
		nodeID       = flag.String("node-id", "", "cluster node id (empty = random); must be unique across the fleet")
		peers        = flag.String("peers", "", "comma-separated peer base URLs a coordinator pulls state from")
		pullInterval = flag.Duration("pull-interval", 5*time.Second, "coordinator state-pull cadence (failing peers back off exponentially)")

		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, error, or off (debug adds one line per request, carrying its trace id)")

		faultSpec = flag.String("fault-spec", "",
			"DEV ONLY: arm deterministic fault injection, e.g. 'store.wal.append=error:after=100;cluster.pull.body=corrupt:seed=7' (see internal/fault)")
	)
	flag.Parse()

	handler, err := logHandler(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldpserver:", err)
		os.Exit(1)
	}
	logger := slog.New(handler)
	die := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}

	if *faultSpec != "" {
		rules, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			die(fmt.Errorf("-fault-spec: %w", err))
		}
		fault.Arm(rules...)
		logger.Warn("fault injection armed: this process WILL misbehave on the configured sites", "spec", *faultSpec)
	}

	nodeRole, err := server.ParseRole(*role)
	if err != nil {
		die(err)
	}
	var peerList []string
	if *peers != "" {
		for _, u := range strings.Split(*peers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				peerList = append(peerList, strings.TrimRight(u, "/"))
			}
		}
	}

	cfg := ldpmarginals.Config{D: *d, K: *k, Epsilon: *eps, OptimizedPRR: true}
	p, err := ldpmarginals.ProtocolByName(*protocol, cfg)
	if err == nil {
		// Refuse an unserved protocol with the server's own message,
		// before -data-dir is touched.
		_, err = server.CheckServed(p)
	}
	if err != nil {
		die(err)
	}
	// Validate -fsync for every role, so a typo fails identically
	// whether or not this node opens a store.
	policy, err := store.ParseFsync(*fsyncMode)
	if err != nil {
		die(err)
	}
	clusterDir := ""
	if nodeRole == server.RoleCoordinator && *dataDir != "" {
		// A coordinator's durable artifact is the per-peer state
		// snapshot, not a WAL: it ingests nothing itself. -fsync is
		// dead on this role.
		clusterDir = *dataDir
		*dataDir = ""
		if *fsyncMode != "interval" {
			logger.Info("-fsync tunes the WAL and has no effect on a coordinator")
		}
	}
	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(*dataDir, p, store.Options{
			Fsync:          policy,
			SnapshotEveryN: snapshotEveryN,
		})
		if err != nil {
			die(err)
		}
		_, rec := st.Recovered()
		logger.Info("recovered reports", "reports", rec.Reports, "dir", *dataDir,
			"sealed_buckets", len(st.RecoveredLayout().Sealed),
			"snapshot_seq", rec.SnapshotSeq, "snapshot_reports", rec.SnapshotReports,
			"replayed", rec.ReportsReplayed, "segments", rec.SegmentsReplayed)
		if rec.TornTailTruncations > 0 {
			logger.Warn("truncated torn WAL tail records from the previous crash", "records", rec.TornTailTruncations)
		}
		if rec.SnapshotsDiscarded > 0 {
			logger.Warn("discarded corrupt snapshots during recovery", "snapshots", rec.SnapshotsDiscarded)
		}
		if rec.BucketsRebuilt > 0 {
			logger.Warn("rebuilt buckets from their WAL segments: their bucket files failed validation", "buckets", rec.BucketsRebuilt)
		}
	}
	srv, err := server.NewWithOptions(p, server.Options{
		Role:            nodeRole,
		NodeID:          *nodeID,
		Peers:           peerList,
		PullInterval:    *pullInterval,
		ClusterDir:      clusterDir,
		Shards:          *shards,
		RefreshInterval: *interval,
		Store:           st,
		Window:          *windowSpan,
		Bucket:          *bucketSpan,
		RoundEps:        *roundEps,
		Log:             logger,
	})
	if err != nil {
		die(err)
	}
	defer srv.Close()
	if *windowSpan > 0 {
		budget := "none"
		if *roundEps > 0 {
			budget = fmt.Sprintf("%.3g eps per client", *roundEps)
		}
		logger.Info("continual release", "window", *windowSpan, "bucket", *bucketSpan, "round_budget", budget)
	}
	if nodeRole == server.RoleCoordinator {
		if clusterDir != "" {
			logger.Info("coordinator pulling peers", "node", srv.NodeID(), "peers", len(peerList), "interval", *pullInterval, "resumed_reports", srv.N(), "cluster_dir", clusterDir)
		} else {
			logger.Info("coordinator pulling peers", "node", srv.NodeID(), "peers", len(peerList), "interval", *pullInterval)
		}
	}

	if *pprofAddr != "" {
		// Profiling stays off the service listener: the pprof handlers
		// register on http.DefaultServeMux (blank import below), which
		// the deployment mux never touches, and bind to their own —
		// typically loopback-only — address. Hot-path regressions can
		// then be profiled in place without exposing /debug to clients.
		// /metrics and /debug/traces ride along so scrapes and trace
		// inspection survive a saturated (or admission-shedding) service
		// listener.
		http.Handle("/metrics", srv.Metrics().Handler())
		http.Handle("/debug/traces", srv.TraceHandler())
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	// Read and write timeouts bound how long a slow (or slow-loris)
	// client can hold a connection — and with it one of the server's
	// bounded batch slots — mid-request or mid-response. Two minutes is
	// ample for a 16 MiB batch or state export on a slow uplink;
	// everything else completes in milliseconds. Without WriteTimeout a
	// peer that stops reading a large /state response would pin the
	// handler goroutine (and the exported state's memory) forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	durable := "memory-only"
	if st != nil {
		durable = fmt.Sprintf("durable in %s (fsync %s)", *dataDir, st.Fsync())
	} else if clusterDir != "" {
		durable = fmt.Sprintf("peer states in %s", clusterDir)
	}
	fmt.Printf("serving %s as %s node %s (d=%d k=%d eps=%.3g, %d shards, refresh %v, %s) on %s\n",
		p.Name(), nodeRole, srv.NodeID(), *d, *k, *eps, srv.Shards(), *interval, durable, *addr)

	select {
	case err := <-errc:
		die(err)
	case <-ctx.Done():
		stop()
		logger.Info("shutting down: draining in-flight requests")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			logger.Warn("shutdown incomplete", "err", err)
		}
		if err := srv.Close(); err != nil {
			logger.Error("closing store failed", "err", err)
		} else if st != nil {
			logger.Info("flushed WAL and wrote final snapshot", "dir", *dataDir)
		}
		if v := srv.View(); v != nil {
			logger.Info("served", "reports", srv.N(), "epochs", v.Epoch())
		} else {
			logger.Info("ingested", "reports", srv.N())
		}
	}
}

// logHandler maps a -log-level value to a key=value handler on stderr
// at that floor; "off" discards everything.
func logHandler(level string) (slog.Handler, error) {
	var min slog.Level
	switch strings.ToLower(strings.TrimSpace(level)) {
	case "debug":
		min = slog.LevelDebug
	case "info", "":
		min = slog.LevelInfo
	case "warn", "warning":
		min = slog.LevelWarn
	case "error":
		min = slog.LevelError
	case "off", "none":
		return slog.DiscardHandler, nil
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn, error, or off)", level)
	}
	return slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: min}), nil
}
