package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/loop"
	"ldpmarginals/internal/metrics"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/trace"
	"ldpmarginals/internal/view"
	"ldpmarginals/internal/wire"
)

// Fault-injection sites on the coordinator's pull path (internal/fault;
// no-ops unless a test or -fault-spec arms them).
const (
	// FaultClusterDial fails the pull before the HTTP request is sent —
	// an unreachable or timing-out peer (transient).
	FaultClusterDial = "cluster.pull.dial"
	// FaultClusterBody corrupts the response body bytes after the read —
	// a peer shipping damaged frames (poison, via the decode failure it
	// causes).
	FaultClusterBody = "cluster.pull.body"
	// FaultClusterDecode fails frame decoding directly (poison).
	FaultClusterDecode = "cluster.pull.decode"
)

// The cluster tier. An edge exports its aggregation state on GET /state;
// a coordinator's fleet holds the latest accepted state per configured
// peer and lists its components as parts, of which the view engine's
// core.FoldArena refolds only those whose label moved. The
// exchange is *componentized state transfer with replacement*: a peer's
// state arrives as named components (an edge's one merged state, or a
// mid-tier coordinator's pass-through constituents), each labeled with
// its own version, and accepting a pull replaces exactly the components
// the frame carries. A delta frame (negotiated via the ?since=/
// If-None-Match handshake) carries only the components whose labels
// moved since the base version this coordinator acknowledged; a full
// frame replaces the peer's whole component set. Replacement is what
// makes the protocol idempotent and crash-proof — re-pulling an
// unchanged peer is a 304 (or a label-matched no-op), and an edge that
// crashed and recovered from its WAL re-serves its full recovered state
// under a fresh version salt, which a coordinator detects as an unknown
// delta base and resolves with one full pull. Because aggregation is
// associative integer counting, the assembled fleet state is
// byte-identical to a single aggregator that consumed every edge's
// stream directly — whatever mix of full frames, deltas, and topology
// tiers it arrived through. State enters the fleet one way, fleet.accept,
// after validateComponents: a pulled full frame, a pulled delta, and a
// peer state recovered from the cluster directory, which is the full
// frame the peer's held state was persisted as.

// fleet is a coordinator's state source: the latest accepted components
// of every configured peer. A coordinator ingests nothing, so that is all
// of its state.
type fleet struct {
	p     core.Protocol
	dir   string // peer-state persistence directory; "" disables
	ownID string // this coordinator's node id; accept refuses frames bearing it

	total atomic.Int64  // sum of accepted peer report counts
	ver   atomic.Uint64 // bumps on every accepted peer update

	mu          sync.Mutex
	peers       []*peerEntry
	comp        []view.Component // composition of the engine's latest capture
	lastSaveErr error

	// saveMu serializes persist calls: two concurrent saves would
	// collide on the snapshot's fixed temp path and could rename a
	// partially written file into place, bricking the next restart on a
	// CRC failure. Held across collect+write so the last writer to
	// finish holds the newest data.
	saveMu sync.Mutex
}

// peerComp is one accepted component of a peer's state: the blob, which
// is what is persisted, passed through to a coordinator above and diffed
// against, and the aggregator it decoded into when it was validated,
// which is what arenas fold by reference — a blob is decoded once. Both
// are replaced wholesale on accept, never mutated, so references read
// under the fleet lock stay valid after it.
type peerComp struct {
	version uint64
	n       int
	state   []byte
	agg     core.Aggregator
}

// peerEntry is one configured peer and its pull lifecycle state.
type peerEntry struct {
	url string

	// Latest accepted state (comps nil until the first successful pull
	// or recovery). top is the peer's export version label — the delta
	// base the next pull acknowledges.
	nodeID   string
	top      uint64
	comps    map[string]peerComp
	n        int // sum of comps' report counts
	pulledAt time.Time

	// Pull scheduling: consecutive failures drive exponential backoff.
	fails   int
	nextDue time.Time
	lastErr string

	// Circuit breaker: consecutive poison failures (frames that arrived
	// but failed CRC/decode/validation/fold) trip the peer into
	// quarantine — held contribution retained, regular pulls suspended,
	// half-open probes on the quarantine timer. quarantines counts trips
	// over the peer's lifetime.
	poisonFails   int
	quarantined   bool
	quarantinedAt time.Time
	quarantines   int
}

// peerHealthState is a peer's circuit-breaker health as surfaced on
// /view/status, /readyz, and metrics.
type peerHealthState int

const (
	peerHealthy peerHealthState = iota
	peerBackingOff
	peerQuarantined
)

func (h peerHealthState) String() string {
	switch h {
	case peerHealthy:
		return "healthy"
	case peerBackingOff:
		return "backing_off"
	case peerQuarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// healthLocked derives the peer's health; callers hold fleet.mu.
func (pe *peerEntry) healthLocked() peerHealthState {
	switch {
	case pe.quarantined:
		return peerQuarantined
	case pe.fails > 0:
		return peerBackingOff
	default:
		return peerHealthy
	}
}

// poisonError marks a pull failure caused by the peer's *content* —
// the frame arrived but failed CRC/decode/validation/fold — as opposed
// to a transient transport failure (dial, timeout, non-200). Transient
// failures mean "try again soon"; poison failures mean the peer is
// serving garbage deterministically, and retrying at the backoff
// cadence just re-downloads and re-rejects the same bytes. Consecutive
// poison failures trip the circuit breaker.
type poisonError struct{ err error }

func (e *poisonError) Error() string { return e.err.Error() }
func (e *poisonError) Unwrap() error { return e.err }

// poison wraps a content-level pull failure for breaker classification.
func poison(err error) error {
	if err == nil {
		return nil
	}
	return &poisonError{err: err}
}

func isPoison(err error) bool {
	var pe *poisonError
	return errors.As(err, &pe)
}

// errStaleDeltaBase marks a delta frame that cannot be applied because
// the coordinator no longer holds the base it was computed against
// (peer restarted and re-salted, a crash dropped the persisted top, or
// the fold diverged). The puller resolves it by re-fetching a full
// frame within the same pull.
var errStaleDeltaBase = errors.New("delta base no longer held")

// newFleet builds the fleet over the configured peer URLs, recovering
// persisted peer states from dir when set. ownID is the coordinator's
// own node id, so a misconfigured peer list pointing back at this node
// (directly, or through a coordinator cycle) is refused instead of
// folding the node's own output back in as a "peer" every round. A
// recovered state is a full frame read from disk and enters through
// validateComponents and accept like a pulled one, guards included; one
// that fails is dropped (the next pull replaces it) with the reason in
// the peer's last error. pulledAt stays zero: /status must not report a
// pull that never happened. The persisted top label is kept, so the
// first pull after a restart resumes as a delta when the peer survived.
func newFleet(p core.Protocol, urls []string, dir, ownID string) (*fleet, error) {
	f := &fleet{p: p, dir: dir, ownID: ownID}
	for _, u := range urls {
		f.peers = append(f.peers, &peerEntry{url: u})
	}
	if dir == "" {
		return f, nil
	}
	saved, err := store.LoadPeerStates(dir, p)
	if err != nil {
		return nil, fmt.Errorf("server: recovering peer states: %w", err)
	}
	for _, ps := range saved {
		pe := f.findPeer(ps.URL)
		if pe == nil {
			continue // no longer configured
		}
		vf, err := validateComponents(p, ps.Frame)
		if err == nil {
			_, err = f.accept(ps.URL, vf)
		}
		if err != nil {
			pe.lastErr = "recovered state refused: " + err.Error()
		}
	}
	return f, nil
}

// validFrame is a frame that passed validateComponents, which is the
// only way to make one: aggs[i] is what Components[i].State decoded to.
type validFrame struct {
	wire.ComponentFrame
	aggs []core.Aggregator
}

// validateComponents decodes every component's canonical state blob into
// a fresh aggregator of the deployment's protocol and cross-checks its
// declared report count, so a foreign or corrupt blob is rejected before
// it can enter any snapshot; the aggregator is the component's
// contribution to every later fold. For full frames it also cross-checks
// the declared total (deltas declare the total *after* the fold; accept
// checks it there).
func validateComponents(p core.Protocol, cf wire.ComponentFrame) (validFrame, error) {
	vf := validFrame{ComponentFrame: cf, aggs: make([]core.Aggregator, len(cf.Components))}
	sum := 0
	for i, c := range cf.Components {
		agg := p.NewAggregator()
		if err := agg.UnmarshalState(c.State); err != nil {
			return validFrame{}, fmt.Errorf("component %s: %w", c.ID, err)
		}
		if got := agg.N(); got != c.N {
			return validFrame{}, fmt.Errorf("component %s: state holds %d reports but the frame declares %d", c.ID, got, c.N)
		}
		vf.aggs[i] = agg
		sum += c.N
	}
	if !cf.Delta && sum != cf.N {
		return validFrame{}, fmt.Errorf("components hold %d reports but the frame declares %d", sum, cf.N)
	}
	return vf, nil
}

// sortedCompIDs returns a peer's component ids in canonical order.
func sortedCompIDs(comps map[string]peerComp) []string {
	ids := make([]string, 0, len(comps))
	for id := range comps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// foldKey names a peer component in the fleet's arena. The node id is
// part of it, so a URL that now answers as a different node drops every
// contribution of the old one.
type foldKey struct{ url, nodeID, id string }

// AppendParts appends the fleet's parts to dst and returns the extended
// slice: one per held peer component, labelled by its accepted version,
// whose contribution is the aggregator the accept path decoded it into.
// A pull round that moved one edge therefore refolds one component and
// decodes nothing. It records the parts' composition for the view engine
// (view.Composed); only the engine may call it (builds are serialized
// under the engine's lock).
func (f *fleet) AppendParts(dst []core.Part) []core.Part {
	f.mu.Lock()
	defer f.mu.Unlock()
	comp := make([]view.Component, 0, len(f.peers))
	for _, pe := range f.peers {
		if pe.comps == nil {
			continue
		}
		for _, id := range sortedCompIDs(pe.comps) {
			c := pe.comps[id]
			dst = append(dst, core.Part{
				Key:     foldKey{url: pe.url, nodeID: pe.nodeID, id: id},
				Version: c.version,
				Agg:     func(core.Aggregator) (core.Aggregator, error) { return c.agg, nil },
			})
		}
		comp = append(comp, view.Component{
			ID: pe.nodeID, URL: pe.url, N: pe.n, Version: pe.top,
			PulledAt: pe.pulledAt, Parts: len(pe.comps),
		})
	}
	f.comp = comp
	return dst
}

// Composition describes the constituents of the latest capture.
func (f *fleet) Composition() []view.Component {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]view.Component(nil), f.comp...)
}

// N is the fleet-wide report count: every accepted peer state.
// Lock-free, so the view engine's staleness polling never contends with
// pulls.
func (f *fleet) N() int { return int(f.total.Load()) }

// Version labels the coordinator's own exported state: it changes
// whenever any accepted peer state changes.
func (f *fleet) Version() uint64 { return f.ver.Load() }

// guardFrame runs the identity checks shared by full and delta accepts,
// under the fleet lock: a frame bearing this coordinator's own node id
// (self-pull or coordinator cycle), a node id already served by another
// peer URL, a component originated by this coordinator (a deeper
// cycle), or a component id already held via another peer (the same
// constituent reachable through two paths — a diamond topology that
// would double-count its reports). Because coordinators pass component
// ids through unchanged, these guards hold through any number of
// mid-tier coordinators, not just one tier deep.
func (f *fleet) guardFrame(target *peerEntry, cf wire.ComponentFrame) error {
	if cf.NodeID == f.ownID {
		// A self-pull (or a coordinator cycle) would re-ingest this
		// node's own merged output as a peer contribution, inflating
		// the fleet without bound: the export's version label changes
		// on every accept, so the idempotency skip would never fire.
		return fmt.Errorf("peer %s answered with this coordinator's own node id %q (self-pull or coordinator cycle)", target.url, cf.NodeID)
	}
	for _, pe := range f.peers {
		if pe != target && pe.comps != nil && pe.nodeID == cf.NodeID {
			return fmt.Errorf("node id %q already served by peer %s", cf.NodeID, pe.url)
		}
	}
	for _, c := range cf.Components {
		if wire.ComponentOrigin(c.ID) == f.ownID {
			return fmt.Errorf("peer %s ships component %q originated by this coordinator (coordinator cycle)", target.url, c.ID)
		}
		for _, pe := range f.peers {
			if pe == target || pe.comps == nil {
				continue
			}
			if _, dup := pe.comps[c.ID]; dup {
				return fmt.Errorf("component %q already held via peer %s (same constituent reachable through two paths)", c.ID, pe.url)
			}
		}
	}
	return nil
}

func (f *fleet) findPeer(url string) *peerEntry {
	for _, pe := range f.peers {
		if pe.url == url {
			return pe
		}
	}
	return nil
}

// accept installs a validated frame as the held state of the peer at
// url; it is the only writer of a peer's held state and of the fleet's
// total and version. A delta folds into a copy of the held set and needs
// the peer's stored top label as its base, else errStaleDeltaBase tells
// the puller to resolve with a full fetch. A full frame whose (node id,
// version) label is already held is the idempotent re-pull (changed is
// false); any other replaces the whole set. Then shipped components
// replace (or add) their ids, removed ids drop, and the result must
// account for exactly the total the frame declares — which only a delta
// can miss, validateComponents having checked a full frame's.
func (f *fleet) accept(url string, vf validFrame) (changed bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	target := f.findPeer(url)
	if target == nil {
		return false, fmt.Errorf("peer %s is not configured", url)
	}
	if err := f.guardFrame(target, vf.ComponentFrame); err != nil {
		return false, err
	}
	held := target.comps != nil && target.nodeID == vf.NodeID
	var next map[string]peerComp
	switch {
	case vf.Delta && !(held && target.top == vf.BaseVersion):
		return false, fmt.Errorf("delta against base %d of node %q: %w", vf.BaseVersion, vf.NodeID, errStaleDeltaBase)
	case vf.Delta:
		// A copy: a sum mismatch below must leave the held state
		// untouched (the follow-up full fetch replaces it atomically).
		next = maps.Clone(target.comps)
	case held && target.top == vf.Version:
		return false, nil
	default:
		next, changed = make(map[string]peerComp, len(vf.Components)), true
	}
	for i, c := range vf.Components {
		if old, ok := next[c.ID]; !ok || old.version != c.Version {
			changed = true
		}
		next[c.ID] = peerComp{version: c.Version, n: c.N, state: c.State, agg: vf.aggs[i]}
	}
	for _, id := range vf.Removed {
		if _, ok := next[id]; ok {
			delete(next, id)
			changed = true
		}
	}
	n := 0
	for _, c := range next {
		n += c.n
	}
	if n != vf.N {
		// The folded set and the exporter's declared total diverged —
		// the base we hold is not what the delta was cut against.
		return false, fmt.Errorf("delta fold holds %d reports but the frame declares %d: %w", n, vf.N, errStaleDeltaBase)
	}
	f.total.Add(int64(n - target.n))
	target.nodeID, target.top, target.comps, target.n = vf.NodeID, vf.Version, next, n
	if changed {
		f.ver.Add(1)
	}
	return changed, nil
}

// peerBase returns the peer's accepted export version label — the delta
// base the next pull acknowledges — and the components held under it,
// which a diff in the reply is applied to. The map is replaced, never
// mutated, on accept, so the caller reads it without the lock.
func (f *fleet) peerBase(url string) (top uint64, comps map[string]peerComp, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	pe := f.findPeer(url)
	if pe == nil || pe.comps == nil {
		return 0, nil, false
	}
	return pe.top, pe.comps, true
}

// sameTop reports whether a frame's (node id, version) label matches the
// stored one for the peer — the idempotent re-pull fast path, checked
// before the expensive per-component decode validation.
func (f *fleet) sameTop(url, nodeID string, ver uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	pe := f.findPeer(url)
	return pe != nil && pe.comps != nil && pe.nodeID == nodeID && pe.top == ver
}

// persist writes the current peer states to the cluster directory (when
// configured) so a coordinator restart resumes from the last accepted
// pulls — including the per-component delta bases — instead of an empty
// fleet.
func (f *fleet) persist() {
	if f.dir == "" {
		return
	}
	f.saveMu.Lock()
	defer f.saveMu.Unlock()
	f.mu.Lock()
	peers := make([]store.PeerFrame, 0, len(f.peers))
	for _, pe := range f.peers {
		if pe.comps == nil {
			continue
		}
		cf := wire.ComponentFrame{NodeID: pe.nodeID, Version: pe.top, N: pe.n}
		for _, id := range sortedCompIDs(pe.comps) {
			c := pe.comps[id]
			cf.Components = append(cf.Components, wire.StateComponent{ID: id, Version: c.version, N: c.n, State: c.state})
		}
		peers = append(peers, store.PeerFrame{URL: pe.url, Frame: cf})
	}
	f.mu.Unlock()
	err := store.SavePeerStates(f.dir, f.p, peers)
	f.mu.Lock()
	f.lastSaveErr = err
	f.mu.Unlock()
}

// peersWithState counts configured peers whose state is held — pulled
// this run or recovered from the cluster directory. The readiness probe
// gates on it: a coordinator with zero peer states has nothing real to
// serve.
func (f *fleet) peersWithState() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, pe := range f.peers {
		if pe.comps != nil {
			n++
		}
	}
	return n
}

// peerHealth snapshots every configured peer's circuit-breaker health,
// keyed by peer URL, for /readyz. Quarantined peers do not fail
// readiness — the held contribution keeps serving, which is the point
// of quarantine — they are surfaced so operators and balancers can see
// which constituents are stale.
func (f *fleet) peerHealth() map[string]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := make(map[string]string, len(f.peers))
	for _, pe := range f.peers {
		m[pe.url] = pe.healthLocked().String()
	}
	return m
}

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

// puller drives the periodic state pulls of a coordinator with per-peer
// exponential backoff.
type puller struct {
	f         *fleet
	client    *http.Client
	transport *http.Transport // dedicated; idle conns dropped on Close
	interval  time.Duration
	maxState  int64
	tracer    *trace.Tracer // roots background rounds; may be nil in tests
	log       *slog.Logger

	// ins is keyed by peer URL; the peer set is fixed at construction so
	// the map is read-only after newPuller.
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
	shift := fails - 1
	if shift < 0 {
		shift = 0
	}
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	backoff := interval << shift
	return backoff + rand.N(backoff/2+1)
}

func newPuller(f *fleet, interval, timeout time.Duration, maxState int64, tracer *trace.Tracer, log *slog.Logger) *puller {
	// A dedicated transport, not http.DefaultTransport: the puller's
	// keep-alive connections to its peers must die with the puller.
	// Shared-transport idle connections (two goroutines each) outlive
	// Server.Close by the transport's idle timeout — a connection (and
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
	return &puller{
		f:         f,
		client:    &http.Client{Timeout: timeout, Transport: transport},
		transport: transport,
		interval:  interval,
		maxState:  maxState,
		tracer:    tracer,
		log:       log,
		ins:       ins,
		rounds:    metrics.NewCounter(),
	}
}

// start begins the background pull rounds and returns their stop. The
// rounds wake at a fraction of the pull interval and pull every due
// peer, so backoff deadlines are honored within ~interval/4 without
// per-peer goroutines.
func (pl *puller) start() (stop func()) {
	stopRounds := loop.Every(max(pl.interval/4, 10*time.Millisecond), func() {
		// Each background round roots its own trace; a round that found
		// no peer due is abandoned so the idle tick cadence doesn't flood
		// the trace ring.
		ctx, root := pl.tracer.StartRoot(context.Background(), "cluster.pull_round")
		if pulled := pl.round(ctx, false); pulled == 0 {
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
		// at the idle timeout.
		pl.transport.CloseIdleConnections()
	}
}

// round pulls every peer that is due (or all of them when force is set,
// the POST /pull path), persisting the fleet once if anything changed.
// It returns the number of peers pulled. Rounds are serialized; see
// roundMu. ctx carries the round's span: background rounds root their
// own trace, forced rounds inherit the POST /pull request's, and the
// per-peer pull spans (with the propagated traceparent) hang off it.
func (pl *puller) round(ctx context.Context, force bool) (pulled int) {
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
func (pl *puller) pull(ctx context.Context, url string) (changed bool) {
	ctx, span := trace.StartSpan(ctx, "cluster.pull")
	span.SetAttr("peer", url)
	t0 := time.Now()
	changed, mode, err := pl.fetch(ctx, span, url, true)
	if ins := pl.ins[url]; ins != nil {
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
func (pl *puller) updateSchedule(url string, err error) peerHealthState {
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
			pe.quarantinedAt = time.Time{}
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
			pe.quarantinedAt = now
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
func (pl *puller) fetch(ctx context.Context, span *trace.Span, url string, ack bool) (changed bool, mode string, err error) {
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
	if err := fault.Hit(FaultClusterDial); err != nil {
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
		if ins != nil {
			if last := ins.lastFullBytes.Load(); last > 0 {
				ins.bytesSaved.Add(last)
			}
		}
		return false, pullModeNotModified, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, "", fmt.Errorf("GET /state: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, pl.maxState+1))
	if ins != nil {
		ins.bytes.Add(uint64(len(body)))
	}
	if err != nil {
		return false, "", fmt.Errorf("GET /state: reading body: %w", err)
	}
	if int64(len(body)) > pl.maxState {
		return false, "", poison(fmt.Errorf("GET /state: body exceeds %d bytes", pl.maxState))
	}
	// From here on every failure is *content*: the peer answered, the
	// bytes arrived, and they do not decode/validate/fold. Those count
	// toward quarantine (see poisonError).
	body = fault.Mangle(FaultClusterBody, body)
	if err := fault.Hit(FaultClusterDecode); err != nil {
		return false, "", poison(fmt.Errorf("GET /state: decoding frame: %w", err))
	}
	// maxState bounds the decompressed component total too: flate in a
	// hostile frame must not inflate past the configured budget.
	cf, err := wire.DecodeComponentFrameWith(body, pl.maxState, func(id string) (wire.ComponentBase, bool) {
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
	if ins != nil {
		ins.diffComps.Add(uint64(diffs))
	}
	if cf.Delta {
		if !ack {
			return false, "", poison(fmt.Errorf("GET /state: peer answered a delta frame to a full-frame request"))
		}
		mode = pullModeDelta
		if ins != nil {
			if last := ins.lastFullBytes.Load(); last > uint64(len(body)) {
				ins.bytesSaved.Add(last - uint64(len(body)))
			}
		}
	} else {
		mode = pullModeFull
		if ins != nil {
			ins.lastFullBytes.Store(uint64(len(body)))
		}
		// Skip the (expensive) decode validation for an unchanged state:
		// accept short-circuits on the (node id, version) label. Peek
		// cheaply first.
		if pl.f.sameTop(url, cf.NodeID, cf.Version) {
			return false, mode, nil
		}
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

// PeerStatus is one peer's entry in the /status cluster block.
type PeerStatus struct {
	// URL is the configured peer base URL.
	URL string `json:"url"`
	// NodeID is the peer's self-reported node id ("" before the first
	// successful pull).
	NodeID string `json:"node_id,omitempty"`
	// Version and N label the latest accepted state; Version is the
	// delta base the next pull acknowledges.
	Version uint64 `json:"version"`
	N       int    `json:"n"`
	// Components is how many named state components the accepted state
	// decomposes into: 1 for an edge (its shards ship merged), one per
	// constituent node for a mid-tier coordinator, 0 before the first
	// pull; more only while a state from an exporter that shipped one
	// component per shard has not been replaced by a full frame.
	Components int `json:"components,omitempty"`
	// LastPullAgeSeconds is how long ago the last successful pull
	// finished (negative when none has succeeded yet).
	LastPullAgeSeconds float64 `json:"last_pull_age_seconds"`
	// ConsecutiveFailures counts pulls failed since the last success;
	// the pull schedule backs off exponentially with it.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LastError is the most recent pull failure, cleared on success.
	LastError string `json:"last_error,omitempty"`
	// Health is the peer's circuit-breaker state: healthy, backing_off
	// (consecutive pull failures, exponential backoff), or quarantined
	// (repeated poison frames; held contribution retained, half-open
	// probes only).
	Health string `json:"health"`
	// PoisonFailures counts consecutive content-level failures (CRC,
	// decode, validation, fold) — the quarantine trigger.
	PoisonFailures int `json:"poison_failures,omitempty"`
	// Quarantines counts breaker trips over the peer's lifetime.
	Quarantines int `json:"quarantines,omitempty"`
}

// ClusterStatus is the cluster block of a /status reply.
type ClusterStatus struct {
	// Role is the node's role (single, edge, coordinator).
	Role string `json:"role"`
	// NodeID is this node's id, as exported in its /state frames.
	NodeID string `json:"node_id"`
	// StateVersion is the version this node would label a /state export
	// with right now.
	StateVersion uint64 `json:"state_version"`
	// PullIntervalSeconds is the coordinator's configured pull cadence
	// (0 for other roles).
	PullIntervalSeconds float64 `json:"pull_interval_seconds,omitempty"`
	// Peers describes every configured peer (coordinator only).
	Peers []PeerStatus `json:"peers,omitempty"`
	// PeerStateSaveError is the most recent failure persisting peer
	// states to the cluster directory, if any.
	PeerStateSaveError string `json:"peer_state_save_error,omitempty"`
}

// status snapshots the fleet for the /status cluster block.
func (f *fleet) status() (peers []PeerStatus, saveErr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	peers = make([]PeerStatus, 0, len(f.peers))
	for _, pe := range f.peers {
		ps := PeerStatus{
			URL:                 pe.url,
			NodeID:              pe.nodeID,
			Version:             pe.top,
			N:                   pe.n,
			Components:          len(pe.comps),
			LastPullAgeSeconds:  -1,
			ConsecutiveFailures: pe.fails,
			LastError:           pe.lastErr,
			Health:              pe.healthLocked().String(),
			PoisonFailures:      pe.poisonFails,
			Quarantines:         pe.quarantines,
		}
		if !pe.pulledAt.IsZero() {
			// Clamp at zero: a pulledAt stamp whose monotonic reading was
			// stripped (marshaled status, or a Round(0) anywhere upstream)
			// falls back to wall-clock arithmetic, and a wall clock
			// stepped backwards would otherwise report a negative age —
			// indistinguishable from the "never pulled" -1 sentinel.
			if age := time.Since(pe.pulledAt).Seconds(); age > 0 {
				ps.LastPullAgeSeconds = age
			} else {
				ps.LastPullAgeSeconds = 0
			}
		}
		peers = append(peers, ps)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].URL < peers[j].URL })
	if f.lastSaveErr != nil {
		saveErr = f.lastSaveErr.Error()
	}
	return peers, saveErr
}
