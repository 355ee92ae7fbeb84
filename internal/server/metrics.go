package server

import (
	"log/slog"
	"net/http"
	"time"

	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/metrics"
	"ldpmarginals/internal/trace"
)

// The observability layer. Every server assembles its own
// metrics.Registry at construction: the HTTP middleware's per-endpoint
// latency histograms and status-class counters, the ingest pipeline's
// throughput and shed counters, and the per-layer instrumentation that
// store, view, window, privacy, and the cluster tier register
// themselves. GET /metrics renders it in Prometheus text format on
// every role; all hot-path updates are single atomic operations (see
// internal/metrics).

// codeClasses are the status classes counted per endpoint (1xx is not
// worth a series; 429s additionally surface through the shed and ledger
// counters).
var codeClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// pathInstruments is one route's request metrics.
type pathInstruments struct {
	latency *metrics.Histogram
	codes   [4]*metrics.Counter // indexed by class-2
}

// httpInstruments is the middleware's instrument table: one entry per
// route plus a catch-all for any other path (typos, probes), so request
// cardinality cannot grow unboundedly. Built once at construction, so
// the per-request path is a read-only map lookup.
type httpInstruments struct {
	paths    map[string]*pathInstruments
	other    *pathInstruments
	inflight *metrics.Gauge
}

// serverInstruments is the server's own always-on instrumentation.
type serverInstruments struct {
	http *httpInstruments

	ingestReports   *metrics.Counter // reports accepted into the aggregator
	ingestBatches   *metrics.Counter // /report/batch requests fully accepted
	rejectedReports *metrics.Counter // reports refused by protocol validation
	shedReport      *metrics.Counter // /report requests shed by admission control
	shedBatch       *metrics.Counter // /report/batch requests shed by admission control
}

func newServerInstruments() *serverInstruments {
	h := &httpInstruments{
		paths:    make(map[string]*pathInstruments, len(routes)),
		inflight: metrics.NewGauge(),
	}
	newPath := func() *pathInstruments {
		pi := &pathInstruments{latency: metrics.NewHistogram(metrics.DurationBuckets())}
		for i := range pi.codes {
			pi.codes[i] = metrics.NewCounter()
		}
		return pi
	}
	for _, rt := range routes {
		h.paths[rt.path] = newPath()
	}
	h.other = newPath()
	return &serverInstruments{
		http:            h,
		ingestReports:   metrics.NewCounter(),
		ingestBatches:   metrics.NewCounter(),
		rejectedReports: metrics.NewCounter(),
		shedReport:      metrics.NewCounter(),
		shedBatch:       metrics.NewCounter(),
	}
}

// buildRegistry assembles the server's registry: its own HTTP/ingest
// instruments plus every constructed layer's RegisterMetrics. Called
// once at the end of construction, when all layers exist.
func (s *Server) buildRegistry() *metrics.Registry {
	r := metrics.NewRegistry()
	r.RegisterGoRuntime()

	register := func(path string, pi *pathInstruments) {
		r.MustRegister("ldp_http_request_seconds", "Request latency by endpoint.", metrics.Labels{"path": path}, pi.latency)
		for i, class := range codeClasses {
			r.MustRegister("ldp_http_requests_total", "Requests by endpoint and status class.", metrics.Labels{"path": path, "code": class}, pi.codes[i])
		}
	}
	for _, rt := range routes {
		register(rt.path, s.ins.http.paths[rt.path])
	}
	register("other", s.ins.http.other)
	r.MustRegister("ldp_http_inflight_requests", "Requests currently being served.", nil, s.ins.http.inflight)

	r.MustRegister("ldp_ingest_reports_total", "Reports accepted into the aggregation state.", nil, s.ins.ingestReports)
	r.MustRegister("ldp_ingest_batches_total", "Batch requests fully accepted.", nil, s.ins.ingestBatches)
	r.MustRegister("ldp_ingest_rejected_reports_total", "Reports not ingested from rejected requests (validation failures and the undispatched remainder of a failed batch).", nil, s.ins.rejectedReports)
	r.MustRegister("ldp_ingest_shed_total", "Ingest requests shed by admission control (429).", metrics.Labels{"path": "/report"}, s.ins.shedReport)
	r.MustRegister("ldp_ingest_shed_total", "Ingest requests shed by admission control (429).", metrics.Labels{"path": "/report/batch"}, s.ins.shedBatch)
	r.MustGaugeFunc("ldp_reports", "Reports behind this node (fleet-wide on a coordinator, in-window on a windowed deployment).", nil,
		func() float64 { return float64(s.N()) })
	r.MustGaugeFunc("ldp_ingest_queued_requests", "Ingest requests waiting for an admission slot.", nil,
		func() float64 { return float64(s.adm.queued.Load()) })

	if s.deg != nil {
		r.MustGaugeFunc("ldp_health_state", "Durability health state machine (0 healthy, 1 degraded, 2 recovering).", nil,
			func() float64 { return float64(s.deg.state.Load()) })
		r.MustRegister("ldp_degraded_transitions_total", "Transitions into degraded read-only mode.", nil, s.deg.transitions)
		r.MustRegister("ldp_recoveries_total", "Recoveries from degraded mode back to healthy.", nil, s.deg.recoveries)
		r.MustRegister("ldp_disk_probe_failures_total", "Failed disk probes or WAL revives while degraded.", nil, s.deg.probeFails)
		r.MustRegister("ldp_ingest_shed_degraded_total", "Ingest requests shed with 503 while degraded.", nil, s.deg.shedded)
	}
	// Fault-injection visibility: zero in production (nothing armed), and
	// the chaos harness asserts its schedule actually fired.
	r.MustCounterFunc("ldp_fault_injections_total", "Fault-injection rules fired (internal/fault; 0 unless armed).", nil,
		func() float64 { return float64(fault.Default.Fired()) })

	r.MustCounterFunc("ldp_trace_spans_total", "Spans recorded by the tracer.", nil,
		func() float64 { return float64(s.tracer.Stats().Spans) })
	r.MustCounterFunc("ldp_trace_traces_total", "Completed traces published to the /debug/traces ring.", nil,
		func() float64 { return float64(s.tracer.Stats().Traces) })
	r.MustCounterFunc("ldp_trace_dropped_spans_total", "Spans dropped by the per-trace cap.", nil,
		func() float64 { return float64(s.tracer.Stats().DroppedSpans) })

	if st := s.Store(); st != nil {
		st.RegisterMetrics(r)
	}
	if s.engine != nil {
		s.engine.RegisterMetrics(r)
	}
	if s.windowed() {
		s.ring.RegisterMetrics(r)
	}
	if s.ledger != nil {
		s.ledger.RegisterMetrics(r)
	}
	if s.puller != nil {
		s.puller.RegisterMetrics(r)
	}
	return r
}

// statusRecorder captures the response status for the middleware.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// traceIDHeader is the reply header echoing a request's trace id, in
// the canonical form http.Header stores it under (clients may spell it
// X-LDP-Trace-Id; header lookups fold case).
const traceIDHeader = "X-Ldp-Trace-Id"

// instrument wraps the route mux with the request middleware: in-flight
// gauge, per-endpoint latency histogram, status-class counters, and one
// root trace span per request. A W3C traceparent header joins the
// request to the caller's trace (that is how a coordinator's pull and
// the edge's /state handler become one cross-process trace); otherwise
// a fresh trace starts here. The span's trace id is echoed as
// X-LDP-Trace-Id so clients can quote it, and request logging at debug
// (warn on 5xx) carries the same id so logs and traces correlate.
// /debug/traces itself is exempt from tracing — scraping the ring must
// not fill the ring with scrape traces. The accounting runs deferred: a
// handler that panics (net/http recovers it and drops the connection)
// is counted and traced as a 500, and the panic goes on unchanged.
func (s *Server) instrument(next http.Handler) http.Handler {
	h := s.ins.http
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pi := h.paths[r.URL.Path]
		if pi == nil {
			pi = h.other
		}
		traced := r.URL.Path != "/debug/traces"
		var span *trace.Span
		if traced {
			var ctx = r.Context()
			if tid, parent, ok := trace.Extract(r.Header); ok {
				ctx, span = s.tracer.StartRemoteRoot(ctx, "http.request", tid, parent)
			} else {
				ctx, span = s.tracer.StartRoot(ctx, "http.request")
			}
			span.SetString("method", r.Method)
			span.SetString("path", r.URL.Path)
			w.Header()[traceIDHeader] = []string{span.TraceID().String()}
			r = r.WithContext(ctx)
		}
		h.inflight.Inc()
		rec := statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		returned := false
		defer func() {
			if !returned {
				rec.code = http.StatusInternalServerError
			}
			elapsed := time.Since(start)
			pi.latency.Observe(elapsed.Seconds())
			if class := rec.code/100 - 2; class >= 0 && class < len(pi.codes) {
				pi.codes[class].Inc()
			}
			h.inflight.Dec()
			if traced {
				span.SetInt("status", int64(rec.code))
				if rec.code >= 500 {
					s.log.Warn("request failed", "trace", span.TraceID().String(), "method", r.Method, "path", r.URL.Path, "status", rec.code, "dur", elapsed)
				} else if s.log.Enabled(r.Context(), slog.LevelDebug) {
					s.log.Debug("request", "trace", span.TraceID().String(), "method", r.Method, "path", r.URL.Path, "status", rec.code, "dur", elapsed)
				}
				span.End()
			}
		}()
		next.ServeHTTP(&rec, r)
		returned = true
	})
}

// Metrics returns the server's metric registry, so an operator can
// additionally mount it on a side listener (the pprof port) that stays
// reachable when the serving listener is saturated.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// ReadyResponse is the JSON shape of a /readyz reply.
type ReadyResponse struct {
	Ready bool   `json:"ready"`
	Role  string `json:"role"`
	// Health is the durability state machine's state (healthy, degraded,
	// recovering); always "healthy" for roles without a durable ingest
	// path.
	Health string `json:"health"`
	// Reasons lists what is not ready; empty when Ready.
	Reasons []string `json:"reasons,omitempty"`
	// PeerHealth maps each configured peer URL to healthy, backing_off,
	// or quarantined; coordinators only.
	PeerHealth map[string]string `json:"peer_health,omitempty"`
	// TraceID joins a 503 reply to the server's traces and logs; set
	// only on not-ready replies.
	TraceID string `json:"trace_id,omitempty"`
}

// readiness computes the node's readiness. Liveness (/healthz) answers
// "is the process serving"; readiness answers "should a load balancer
// route traffic here": an ingesting role must have completed WAL
// recovery (implied by construction) and kept the log healthy, a
// serving role must have a published epoch, and a coordinator must hold
// at least one peer's state (pulled this run or recovered from its
// cluster directory) so it has something real to serve.
func (s *Server) readiness() ReadyResponse {
	resp := ReadyResponse{Ready: true, Role: s.role.String(), Health: s.Health()}
	fail := func(reason string) {
		resp.Ready = false
		resp.Reasons = append(resp.Reasons, reason)
	}
	if st := s.Store(); st != nil {
		if err := st.WALErr(); err != nil {
			fail("wal_failed: " + err.Error())
		}
	}
	if s.deg != nil && s.deg.health() != healthHealthy {
		// Mid-recovery the WAL error may already be cleared; the state
		// machine keeps the node unready until durability is restored.
		if s.deg.health() == healthRecovering {
			fail("recovering")
		} else if s.deg.st.WALErr() == nil {
			fail("degraded: " + s.deg.lastErrString())
		}
	}
	if s.fleet != nil {
		if s.fleet.PeersWithState() == 0 {
			fail("no_peer_state")
		}
		// Peer health is surfaced but does not gate readiness: a
		// quarantined peer's held contribution keeps serving, which is
		// the point of quarantine.
		resp.PeerHealth = s.fleet.PeerHealth()
	}
	return resp
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := s.readiness()
	if !resp.Ready {
		// Like every 503 this server emits: an explicit retry hint and a
		// trace id the probe's failure report can be joined on.
		resp.TraceID = traceID(r)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, resp)
}
