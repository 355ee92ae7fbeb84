package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/loop"
	"ldpmarginals/internal/metrics"
	"ldpmarginals/internal/trace"
	"ldpmarginals/internal/wire"
)

// Fault-injection sites on the coordinator's pull path (internal/fault;
// no-ops unless a test or -fault-spec arms them).
const (
	// FaultDial fails the pull before the HTTP request is sent — an
	// unreachable or timing-out peer (transient).
	FaultDial = "cluster.pull.dial"
	// FaultBody corrupts the response body bytes after the read — a peer
	// shipping damaged frames (poison, via the decode failure it causes).
	FaultBody = "cluster.pull.body"
	// FaultDecode fails frame decoding directly (poison).
	FaultDecode = "cluster.pull.decode"
)

// maxStateBytes bounds a pulled /state body. The largest live state is
// InpPS at d=20: 2^20 uvarint counters plus framing, well under this.
const maxStateBytes = 256 << 20

// defaultPullInterval is the pull cadence when NewPuller is given none.
const defaultPullInterval = 5 * time.Second

// pullTimeout bounds one peer state transfer.
const pullTimeout = 30 * time.Second

// peerInstruments is one peer's pull metrics, maintained by the puller.
type peerInstruments struct {
	latency     *metrics.Histogram // one pull's wall time
	bytes       *metrics.Counter   // state bytes fetched
	changed     *metrics.Counter   // pulls that installed a new state
	unchanged   *metrics.Counter   // idempotent re-pulls (same version label)
	failed      *metrics.Counter   // pulls that errored
	deltaPulls  *metrics.Counter   // pulls answered with a delta frame
	fullPulls   *metrics.Counter   // pulls answered with a full frame
	notModified *metrics.Counter   // pulls answered 304 (handshake hit)
	bytesSaved  *metrics.Counter   // estimated bytes the delta path avoided
	diffComps   *metrics.Counter   // components that arrived as diffs

	// lastFullBytes is the wire size of the peer's most recent full
	// frame — the baseline the bytes-saved estimate compares deltas and
	// 304s against.
	lastFullBytes atomic.Uint64
}

// Puller drives the periodic state pulls of a coordinator's Fleet with
// per-peer exponential backoff and a per-peer circuit breaker.
type Puller struct {
	f         *Fleet
	client    *http.Client
	transport *http.Transport // dedicated; idle conns dropped on stop
	interval  time.Duration
	tracer    *trace.Tracer // roots background rounds; may be nil in tests
	log       *slog.Logger

	// ins is keyed by peer URL; the peer set is fixed at construction so
	// the map is read-only after NewPuller.
	ins    map[string]*peerInstruments
	rounds *metrics.Counter

	// roundMu serializes pull rounds (the background ticker and forced
	// POST /pull rounds): interleaved rounds could fetch a peer's state,
	// lose the race to a concurrent round that accepted a *newer* frame,
	// and then install the older one — accept only compares labels for
	// equality, so the regression would stick (and be persisted). Delta
	// application depends on it too: the base acknowledged at fetch time
	// must still be the held top at accept time.
	roundMu sync.Mutex
}

// maxBackoffShift caps the failure backoff at interval << 5 = 32x.
const maxBackoffShift = 5

// The circuit breaker. quarantineAfter consecutive poison failures trip
// a peer into quarantine: three rule out a single torn response. The
// half-open probe cadence is quarantineIntervalMult times the pull
// interval — long enough that a peer deterministically serving garbage
// is not re-downloaded and re-rejected every backoff tick, short enough
// that a repaired peer rejoins within a few minutes at the default 5s
// interval.
const (
	quarantineAfter        = 3
	quarantineIntervalMult = 16
)

// backoffDelay is the wait before retrying a peer that failed fails
// consecutive pulls: exponential in the failure count, capped at
// maxBackoffShift doublings, plus bounded random jitter (up to half the
// base backoff). The jitter decorrelates coordinators restarted
// together — without it, a fleet-wide coordinator restart lands every
// retry of a recovering edge on the same instant, re-synchronizing the
// pull storm the backoff was meant to spread.
func backoffDelay(interval time.Duration, fails int) time.Duration {
	shift := min(max(fails-1, 0), maxBackoffShift)
	backoff := interval << shift
	return backoff + rand.N(backoff/2+1)
}

// NewPuller builds the puller of f's peers, pulling each every interval
// (<= 0 selects 5 s).
func NewPuller(f *Fleet, interval time.Duration, tracer *trace.Tracer, log *slog.Logger) *Puller {
	if interval <= 0 {
		interval = defaultPullInterval
	}
	// A dedicated transport, not http.DefaultTransport: the puller's
	// keep-alive connections to its peers must die with the puller.
	// Shared-transport idle connections (two goroutines each) outlive
	// the stop by the transport's idle timeout — a connection (and
	// goroutine) leak for every coordinator opened and closed in one
	// process, and for rolling peer replacement in a long-lived one.
	transport := &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConnsPerHost: 2,
		IdleConnTimeout:     90 * time.Second,
	}
	ins := make(map[string]*peerInstruments, len(f.peers))
	for _, pe := range f.peers {
		ins[pe.url] = &peerInstruments{
			latency:     metrics.NewHistogram(metrics.DurationBuckets()),
			bytes:       metrics.NewCounter(),
			changed:     metrics.NewCounter(),
			unchanged:   metrics.NewCounter(),
			failed:      metrics.NewCounter(),
			deltaPulls:  metrics.NewCounter(),
			fullPulls:   metrics.NewCounter(),
			notModified: metrics.NewCounter(),
			bytesSaved:  metrics.NewCounter(),
			diffComps:   metrics.NewCounter(),
		}
	}
	return &Puller{
		f:         f,
		client:    &http.Client{Timeout: pullTimeout, Transport: transport},
		transport: transport,
		interval:  interval,
		tracer:    tracer,
		log:       log,
		ins:       ins,
		rounds:    metrics.NewCounter(),
	}
}

// Start begins the background pull rounds and returns their stop, which
// joins them and then persists the fleet. The rounds wake at a fraction
// of the pull interval and pull every due peer, so backoff deadlines are
// honored within ~interval/4 without per-peer goroutines.
func (pl *Puller) Start() (stop func()) {
	stopRounds := loop.Every(max(pl.interval/4, 10*time.Millisecond), func() {
		// Each background round roots its own trace; a round that found
		// no peer due is abandoned so the idle tick cadence doesn't flood
		// the trace ring.
		ctx, root := pl.tracer.StartRoot(context.Background(), "cluster.pull_round")
		if pulled := pl.Round(ctx, false); pulled == 0 {
			root.Discard()
		} else {
			root.SetAttr("peers_pulled", pulled)
			root.End()
		}
	})
	return func() {
		stopRounds()
		// With the rounds joined no background pull can start; drop the
		// keep-alive connections so their read loops exit now rather than
		// at the idle timeout, and save the fleet as it stands.
		pl.transport.CloseIdleConnections()
		pl.f.persist()
	}
}

// Round pulls every peer that is due (or all of them when force is set,
// the POST /pull path), persisting the fleet once if anything changed.
// It returns the number of peers pulled. Rounds are serialized; see
// roundMu. ctx carries the round's span: background rounds root their
// own trace, forced rounds inherit the POST /pull request's, and the
// per-peer pull spans (with the propagated traceparent) hang off it.
func (pl *Puller) Round(ctx context.Context, force bool) (pulled int) {
	pl.roundMu.Lock()
	defer pl.roundMu.Unlock()
	now := time.Now()
	pl.f.mu.Lock()
	due := make([]string, 0, len(pl.f.peers))
	for _, pe := range pl.f.peers {
		if force || !now.Before(pe.nextDue) {
			due = append(due, pe.url)
		}
	}
	pl.f.mu.Unlock()
	// Pull due peers concurrently: one unresponsive peer burning its
	// full pullTimeout must not stall the others' staleness bound (or a
	// forced POST /pull) beyond a single timeout.
	var (
		wg         sync.WaitGroup
		anyChanged atomic.Bool
	)
	for _, url := range due {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			if pl.pull(ctx, url) {
				anyChanged.Store(true)
			}
		}(url)
	}
	wg.Wait()
	pl.rounds.Inc()
	if anyChanged.Load() {
		pl.f.persist()
	}
	return len(due)
}

// Pull reply modes, recorded on metrics and the pull span.
const (
	pullModeFull        = "full"
	pullModeDelta       = "delta"
	pullModeNotModified = "not_modified"
)

// pull fetches, verifies, and installs one peer's state, updating that
// peer's schedule: success re-arms the regular interval, failure backs
// off exponentially (with jitter; see backoffDelay).
func (pl *Puller) pull(ctx context.Context, url string) (changed bool) {
	ctx, span := trace.StartSpan(ctx, "cluster.pull")
	span.SetAttr("peer", url)
	t0 := time.Now()
	changed, mode, err := pl.fetch(ctx, span, url, true)
	ins := pl.ins[url]
	ins.latency.Observe(time.Since(t0).Seconds())
	switch {
	case err != nil:
		ins.failed.Inc()
	case changed:
		ins.changed.Inc()
	default:
		ins.unchanged.Inc()
	}
	if err == nil {
		switch mode {
		case pullModeDelta:
			ins.deltaPulls.Inc()
		case pullModeNotModified:
			ins.notModified.Inc()
		default:
			ins.fullPulls.Inc()
		}
	}
	if err != nil {
		span.SetAttr("error", err.Error())
		span.SetAttr("poison", isPoison(err))
		pl.log.Warn("pull failed", "peer", url, "poison", isPoison(err), "err", err)
	} else {
		span.SetAttr("changed", changed)
		span.SetAttr("mode", mode)
	}
	health := pl.updateSchedule(url, err)
	span.SetAttr("peer_health", health.String())
	span.End()
	return changed
}

// updateSchedule advances one peer's pull schedule and circuit breaker
// after a pull, returning the peer's resulting health. Transient
// failures back off exponentially; poison failures (see poisonError)
// additionally count toward quarantine, and quarantineAfter consecutive
// ones trip the breaker: the held contribution is retained, regular
// pulls stop, and the peer is probed half-open every
// quarantineIntervalMult pull intervals. Any clean pull — half-open
// probe or forced round — closes the breaker.
func (pl *Puller) updateSchedule(url string, err error) peerHealthState {
	now := time.Now()
	quarDelay := quarantineIntervalMult * pl.interval
	pl.f.mu.Lock()
	defer pl.f.mu.Unlock()
	pe := pl.f.findPeer(url)
	if pe == nil {
		return peerHealthy
	}
	if err == nil {
		if pe.quarantined {
			pe.quarantined = false
			pl.log.Info("peer recovered from quarantine", "peer", url)
		}
		pe.fails = 0
		pe.poisonFails = 0
		pe.lastErr = ""
		pe.pulledAt = now
		pe.nextDue = now.Add(pl.interval)
		return peerHealthy
	}
	pe.fails++
	pe.lastErr = err.Error()
	if isPoison(err) {
		pe.poisonFails++
		if !pe.quarantined && pe.poisonFails >= quarantineAfter {
			pe.quarantined = true
			pe.quarantines++
			pl.log.Warn("peer quarantined: repeated poison pulls; holding last good contribution",
				"peer", url, "poison_failures", pe.poisonFails,
				"probe_interval", quarDelay, "err", err)
		}
	} else {
		// Only *consecutive* poison failures quarantine: a transient
		// failure in between means the transport, not the content, is
		// the current problem.
		pe.poisonFails = 0
	}
	if pe.quarantined {
		pe.nextDue = now.Add(quarDelay)
	} else {
		pe.nextDue = now.Add(backoffDelay(pl.interval, pe.fails))
	}
	return pe.healthLocked()
}

// fetch performs the HTTP GET, frame validation, and accept for one
// peer. With ack set it acknowledges the held base version (?since= plus
// If-None-Match), and nothing else is asked for: the reply is a 304
// (nothing moved), a delta frame whose components may be diffs, dense or
// sparse, against the held ones, or a full frame. A delta whose base no
// longer matches what this coordinator holds (peer restart re-salted the
// labels, an epoch gap, a diverged fold), or a diff component against a
// version this coordinator does not hold, recurses once with ack unset:
// a request that names no base can only be answered with a full frame
// of whole components. A frame of another build's format is poison like
// any other that does not decode. The pull span's trace context rides
// along as a W3C traceparent header, so the edge's request span joins
// this coordinator's trace — one fleet pull is one cross-process trace
// id.
func (pl *Puller) fetch(ctx context.Context, span *trace.Span, url string, ack bool) (changed bool, mode string, err error) {
	base, held, haveBase := pl.f.peerBase(url)
	ack = ack && haveBase
	target := url + "/state"
	if ack {
		target += "?since=" + strconv.FormatUint(base, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return false, "", err
	}
	if ack {
		// The handshake rides on both channels: If-None-Match gives
		// intermediaries standard 304 semantics, ?since= names the delta
		// base explicitly.
		req.Header.Set("If-None-Match", stateETag(base))
	}
	trace.Inject(span, req.Header)
	if err := fault.Hit(FaultDial); err != nil {
		return false, "", err
	}
	resp, err := pl.client.Do(req)
	if err != nil {
		return false, "", err
	}
	defer resp.Body.Close()
	ins := pl.ins[url]
	if resp.StatusCode == http.StatusNotModified {
		// The idle-fleet fast path: no body moved at all.
		if last := ins.lastFullBytes.Load(); last > 0 {
			ins.bytesSaved.Add(last)
		}
		return false, pullModeNotModified, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, "", fmt.Errorf("GET /state: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxStateBytes+1))
	ins.bytes.Add(uint64(len(body)))
	if err != nil {
		return false, "", fmt.Errorf("GET /state: reading body: %w", err)
	}
	if len(body) > maxStateBytes {
		return false, "", poison(fmt.Errorf("GET /state: body exceeds %d bytes", maxStateBytes))
	}
	// From here on every failure is *content*: the peer answered, the
	// bytes arrived, and they do not decode/validate/fold. Those count
	// toward quarantine (see poisonError).
	body = fault.Mangle(FaultBody, body)
	if err := fault.Hit(FaultDecode); err != nil {
		return false, "", poison(fmt.Errorf("GET /state: decoding frame: %w", err))
	}
	// maxStateBytes bounds the decompressed component total too: flate
	// in a hostile frame must not inflate past the budget.
	cf, err := wire.DecodeComponentFrameWith(body, maxStateBytes, func(id string) (wire.ComponentBase, bool) {
		c, ok := held[id]
		return wire.ComponentBase{Version: c.version, State: c.state}, ok
	})
	if errors.Is(err, wire.ErrDiffBase) && ack {
		// A diff against a version of the component this coordinator
		// does not hold: stale like any other delta base.
		return pl.fetch(ctx, span, url, false)
	}
	if err != nil {
		return false, "", poison(err)
	}
	diffs, sparse := 0, 0
	for _, c := range cf.Components {
		if c.Base != nil {
			diffs++
			if c.Base.Sparse {
				sparse++
			}
		}
	}
	span.SetAttr("diff_components", diffs)
	span.SetAttr("sparse_components", sparse) // of the diffs
	span.SetAttr("whole_components", len(cf.Components)-diffs)
	ins.diffComps.Add(uint64(diffs))
	if cf.Delta {
		if !ack {
			return false, "", poison(fmt.Errorf("GET /state: peer answered a delta frame to a full-frame request"))
		}
		mode = pullModeDelta
		if last := ins.lastFullBytes.Load(); last > uint64(len(body)) {
			ins.bytesSaved.Add(last - uint64(len(body)))
		}
	} else {
		mode = pullModeFull
		ins.lastFullBytes.Store(uint64(len(body)))
	}
	valid, err := validateComponents(pl.f.p, cf)
	if err != nil {
		return false, mode, poison(err)
	}
	changed, err = pl.f.accept(url, valid)
	if errors.Is(err, errStaleDeltaBase) {
		// Only a delta is stale, and only an acknowledging request gets
		// one: the base drifted between our ack and the apply (or the
		// reply raced a restart), and one full fetch resolves it within
		// the same pull.
		return pl.fetch(ctx, span, url, false)
	}
	return changed, mode, poison(err)
}

// Describe fills in the coordinator's part of the /status cluster block:
// the pull cadence, every configured peer, and the last failure to
// persist their states.
func (pl *Puller) Describe(cs *Status) {
	cs.PullIntervalSeconds = pl.interval.Seconds()
	cs.Peers, cs.PeerStateSaveError = pl.f.status()
}

// RegisterMetrics attaches the coordinator's per-peer pull
// instrumentation: latency/bytes/result counters the puller maintains,
// and scrape-time gauges over the fleet's accepted states.
func (pl *Puller) RegisterMetrics(r *metrics.Registry) {
	f := pl.f
	r.MustCounterFunc("ldp_cluster_pull_rounds_total", "Completed pull rounds (scheduled and forced).", nil,
		func() float64 { return float64(pl.rounds.Value()) })
	r.MustGaugeFunc("ldp_cluster_fleet_reports", "Fleet-wide report count (every accepted peer state).", nil,
		func() float64 { return float64(f.N()) })
	r.MustGaugeFunc("ldp_cluster_peers_with_state", "Configured peers whose state has been accepted (pulled or recovered).", nil,
		func() float64 { return float64(f.PeersWithState()) })

	// peerGauge reads a peer's entry under the fleet lock at scrape time.
	peerGauge := func(read func() float64) func() float64 {
		return func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return read()
		}
	}
	for _, pe := range f.peers {
		labels := metrics.Labels{"peer": pe.url}
		ins := pl.ins[pe.url]
		r.MustRegister("ldp_cluster_pull_seconds", "One peer pull's wall time (fetch + validate + accept).", labels, ins.latency)
		r.MustRegister("ldp_cluster_pull_bytes_total", "State bytes fetched from the peer.", labels, ins.bytes)
		r.MustRegister("ldp_cluster_pulls_total", "Pulls by outcome.", metrics.Labels{"peer": pe.url, "result": "changed"}, ins.changed)
		r.MustRegister("ldp_cluster_pulls_total", "Pulls by outcome.", metrics.Labels{"peer": pe.url, "result": "unchanged"}, ins.unchanged)
		r.MustRegister("ldp_cluster_pulls_total", "Pulls by outcome.", metrics.Labels{"peer": pe.url, "result": "error"}, ins.failed)
		r.MustRegister("ldp_cluster_pull_delta_total", "Successful pulls answered with a delta frame.", labels, ins.deltaPulls)
		r.MustRegister("ldp_cluster_pull_full_total", "Successful pulls answered with a full frame.", labels, ins.fullPulls)
		r.MustRegister("ldp_cluster_pull_not_modified_total", "Successful pulls answered 304 Not Modified (version handshake hit).", labels, ins.notModified)
		r.MustRegister("ldp_cluster_pull_diff_components_total", "Components of pulled delta frames that arrived as counter diffs, dense or sparse, rather than whole.", labels, ins.diffComps)
		r.MustRegister("ldp_cluster_pull_bytes_saved_total", "Estimated bytes the delta/304 path avoided transferring, vs re-fetching the peer's last full frame.", labels, ins.bytesSaved)
		r.MustGaugeFunc("ldp_cluster_peer_components", "Named state components in the peer's latest accepted state.", labels,
			peerGauge(func() float64 { return float64(len(pe.comps)) }))
		r.MustGaugeFunc("ldp_cluster_peer_reports", "Reports in the peer's latest accepted state.", labels,
			peerGauge(func() float64 { return float64(pe.n) }))
		r.MustGaugeFunc("ldp_cluster_peer_pull_age_seconds", "Seconds since the peer's last successful pull (-1 before the first).", labels,
			peerGauge(func() float64 { return pullAge(pe.pulledAt) }))
		r.MustGaugeFunc("ldp_cluster_peer_failures", "Consecutive pull failures (drives exponential backoff).", labels,
			peerGauge(func() float64 { return float64(pe.fails) }))
		r.MustGaugeFunc("ldp_cluster_peer_health", "Peer circuit-breaker state: 0 healthy, 1 backing_off, 2 quarantined.", labels,
			peerGauge(func() float64 { return float64(pe.healthLocked()) }))
		r.MustCounterFunc("ldp_cluster_peer_quarantines_total", "Circuit-breaker trips: times the peer entered quarantine after repeated poison pulls.", labels,
			peerGauge(func() float64 { return float64(pe.quarantines) }))
	}
}
