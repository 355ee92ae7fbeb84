package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/metrics"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/trace"
)

// Graceful degradation for durable ingesting roles. A persistent WAL
// failure (disk full, I/O errors) must not turn every ingest into a
// 500 while the node keeps advertising itself as healthy: instead the
// server becomes an explicit state machine —
//
//	healthy ──WAL failure──▶ degraded ──disk probe ok──▶ recovering
//	   ▲                        ▲                            │
//	   │                        └────────revive failed───────┤
//	   └───────────────────────revive + snapshot ok──────────┘
//
// Degraded, the node is read-only: ingest is shed with 503 +
// Retry-After (a load-balancer signal, not a client bug), while reads,
// /state export, and /metrics keep serving from memory. A background
// probe rewrites a sentinel file in the data directory every
// defaultDegradedProbe (2 s); once the disk accepts durable writes
// again it runs store.Recover — revive the committer on a fresh
// segment, then force a snapshot so the reports consumed while the log
// was dead are durable once more — and flips back to healthy.
// Readiness (/readyz) reports the node unready for the whole excursion,
// so routing drains away and returns only after durability is restored.
type healthState int32

const (
	healthHealthy healthState = iota
	healthDegraded
	healthRecovering
)

func (h healthState) String() string {
	switch h {
	case healthHealthy:
		return "healthy"
	case healthDegraded:
		return "degraded"
	case healthRecovering:
		return "recovering"
	default:
		return "unknown"
	}
}

// defaultDegradedProbe is the sentinel-probe cadence of a degraded
// node.
const defaultDegradedProbe = 2 * time.Second

// degrader owns the health state machine of a durable ingesting node.
type degrader struct {
	st       *store.Store
	log      *slog.Logger
	interval time.Duration

	state   atomic.Int32           // healthState
	lastErr atomic.Pointer[string] // what degraded us / last failed probe

	transitions *metrics.Counter // flips into degraded
	recoveries  *metrics.Counter // flips back to healthy
	probeFails  *metrics.Counter // failed sentinel probes / revives while degraded
	shedded     *metrics.Counter // ingest requests shed 503 while not healthy
}

func newDegrader(st *store.Store, log *slog.Logger, interval time.Duration) *degrader {
	if interval <= 0 {
		interval = defaultDegradedProbe
	}
	return &degrader{
		st:          st,
		log:         log,
		interval:    interval,
		transitions: metrics.NewCounter(),
		recoveries:  metrics.NewCounter(),
		probeFails:  metrics.NewCounter(),
		shedded:     metrics.NewCounter(),
	}
}

func (d *degrader) health() healthState { return healthState(d.state.Load()) }

func (d *degrader) lastErrString() string {
	if p := d.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// enterDegraded flips healthy → degraded exactly once per excursion;
// concurrent handlers observing the same WAL failure race benignly on
// the CAS.
func (d *degrader) enterDegraded(cause error) {
	if d.state.CompareAndSwap(int32(healthHealthy), int32(healthDegraded)) {
		msg := cause.Error()
		d.lastErr.Store(&msg)
		d.transitions.Inc()
		d.log.Warn("entering degraded read-only mode", "cause", msg, "probe_interval", d.interval)
	}
}

// ingestAllowed is the ingest handlers' gate: one atomic load while
// healthy. The first handler to observe a WAL failure flips the state
// machine itself, so shedding starts with the very next request rather
// than waiting for a probe tick.
func (d *degrader) ingestAllowed() bool {
	if d.health() == healthHealthy {
		if err := d.st.WALErr(); err != nil {
			d.enterDegraded(err)
			return false
		}
		return true
	}
	return false
}

// shed answers an ingest request refused because the node is degraded:
// 503 (a server condition, unlike the 429 overload shed) with an
// explicit Retry-After spanning one probe cycle.
func (d *degrader) shed(w http.ResponseWriter, r *http.Request) {
	d.shedded.Inc()
	if span := trace.FromContext(r.Context()); span != nil {
		span.SetAttr("degraded", true)
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(d.interval.Seconds())+1))
	httpError(w, r, "degraded: ingest suspended while the write-ahead log is failed; reads continue to serve", http.StatusServiceUnavailable)
}

// tick advances the state machine, once per probe interval: a healthy
// node watches for WAL failures that arrive without ingest traffic
// (interval fsyncs, window rotations), a degraded node probes the disk
// and attempts recovery.
func (d *degrader) tick() {
	switch d.health() {
	case healthHealthy:
		if err := d.st.WALErr(); err != nil {
			d.enterDegraded(err)
		}
	case healthDegraded:
		if err := store.ProbeDisk(d.st.Dir()); err != nil {
			d.probeFails.Inc()
			msg := err.Error()
			d.lastErr.Store(&msg)
			return
		}
		d.state.Store(int32(healthRecovering))
		if err := d.st.Recover(); err != nil {
			d.probeFails.Inc()
			msg := err.Error()
			d.lastErr.Store(&msg)
			d.state.Store(int32(healthDegraded))
			d.log.Warn("disk probe passed but WAL revive failed; staying degraded", "err", msg)
			return
		}
		d.state.Store(int32(healthHealthy))
		d.lastErr.Store(nil)
		d.recoveries.Inc()
		d.log.Info("recovered from degraded mode; WAL revived and memory state re-snapshotted")
	}
}

// Health reports the node's durability health: healthy, degraded, or
// recovering. Roles without a durable ingest path are always healthy.
func (s *Server) Health() string {
	if s.deg == nil {
		return healthHealthy.String()
	}
	return s.deg.health().String()
}

// admitHealthy gates an ingest handler on the degradation state
// machine; on false the request has been answered with the 503 shed.
func (s *Server) admitHealthy(w http.ResponseWriter, r *http.Request) bool {
	if s.deg == nil || s.deg.ingestAllowed() {
		return true
	}
	s.deg.shed(w, r)
	return false
}
