// Package cluster is the state exchange between the nodes of a
// deployment, at both ends. An edge exports its aggregation state on
// GET /state (Exporter); a coordinator's Fleet holds the latest accepted
// state per configured peer and lists its components as parts, of which
// the view engine's core.FoldArena refolds only those whose label moved,
// and its Puller fetches them. The exchange is *componentized state
// transfer with replacement*: a peer's state arrives as named components
// (an edge's one merged state, or a mid-tier coordinator's pass-through
// constituents), each labeled with its own version, and accepting a pull
// replaces exactly the components the frame carries. A delta frame
// (negotiated via the ?since=/If-None-Match handshake) carries only the
// components whose labels moved since the base version the coordinator
// acknowledged; a full frame replaces the peer's whole component set.
// Replacement is what makes the protocol idempotent and crash-proof —
// re-pulling an unchanged peer is a 304 (or a label-matched no-op), and
// an edge that crashed and recovered from its WAL re-serves its full
// recovered state under a fresh version salt, so the base a coordinator
// acknowledges is not its retained export and it answers one full frame.
// Because aggregation is associative integer counting, the assembled
// fleet state is byte-identical to a single aggregator that consumed
// every edge's stream directly — whatever mix of full frames, deltas,
// and topology tiers it arrived through. State enters the fleet one way,
// Fleet.accept, after validateComponents: a pulled full frame, a pulled
// delta, and a peer state recovered from the cluster directory, which is
// the full frame the peer's held state was persisted as.
package cluster

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/view"
	"ldpmarginals/internal/wire"
)

// Source is a node's one state: the window ring of an ingesting node,
// or a coordinator's Fleet of peer components. The view engine captures
// it, the Exporter exports it, and its version labels the exports.
type Source interface {
	view.Source
	Version() uint64
}

// Fleet is a coordinator's state source: the latest accepted components
// of every configured peer. A coordinator ingests nothing, so that is all
// of its state.
type Fleet struct {
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
	poisonFails int
	quarantined bool
	quarantines int
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

// healthLocked derives the peer's health; callers hold Fleet.mu.
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

// NewFleet builds the fleet over the configured peer URLs, recovering
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
func NewFleet(p core.Protocol, urls []string, dir, ownID string) (*Fleet, error) {
	f := &Fleet{p: p, dir: dir, ownID: ownID}
	for _, u := range urls {
		f.peers = append(f.peers, &peerEntry{url: u})
	}
	if dir == "" {
		return f, nil
	}
	saved, err := store.LoadPeerStates(dir, p)
	if err != nil {
		return nil, fmt.Errorf("cluster: recovering peer states: %w", err)
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
func (f *Fleet) AppendParts(dst []core.Part) []core.Part {
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
			ID: pe.nodeID, URL: pe.url, N: pe.n, Version: pe.top, Parts: len(pe.comps),
		})
	}
	f.comp = comp
	return dst
}

// Composition describes the constituents of the latest capture.
func (f *Fleet) Composition() []view.Component {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]view.Component(nil), f.comp...)
}

// N is the fleet-wide report count: every accepted peer state.
// Lock-free, so the view engine's staleness polling never contends with
// pulls.
func (f *Fleet) N() int { return int(f.total.Load()) }

// Version labels the coordinator's own exported state: it changes
// whenever any accepted peer state changes.
func (f *Fleet) Version() uint64 { return f.ver.Load() }

// guardFrame runs the identity checks shared by full and delta accepts,
// under the fleet lock: a frame bearing this coordinator's own node id
// (self-pull or coordinator cycle), a node id already served by another
// peer URL, a component originated by this coordinator (a deeper
// cycle), or a component id already held via another peer (the same
// constituent reachable through two paths — a diamond topology that
// would double-count its reports). Because coordinators pass component
// ids through unchanged, these guards hold through any number of
// mid-tier coordinators, not just one tier deep.
func (f *Fleet) guardFrame(target *peerEntry, cf wire.ComponentFrame) error {
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

func (f *Fleet) findPeer(url string) *peerEntry {
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
func (f *Fleet) accept(url string, vf validFrame) (changed bool, err error) {
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
func (f *Fleet) peerBase(url string) (top uint64, comps map[string]peerComp, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	pe := f.findPeer(url)
	if pe == nil || pe.comps == nil {
		return 0, nil, false
	}
	return pe.top, pe.comps, true
}

// exportComponents passes the coordinator's held peer components through
// with their original ids and labels, so a root coordinator one tier up
// can deduplicate, cycle-check, and delta-diff the fleet's true
// constituents across any number of mid tiers. The top label and the
// component set are read under one lock acquisition, so repeated labels
// always describe identical component sets.
func (f *Fleet) exportComponents() (top uint64, comps []wire.StateComponent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	top = f.ver.Load()
	for _, pe := range f.peers {
		for id, c := range pe.comps {
			comps = append(comps, wire.StateComponent{ID: id, Version: c.version, N: c.n, State: c.state})
		}
	}
	return top, comps
}

// persist writes the current peer states to the cluster directory (when
// configured) so a coordinator restart resumes from the last accepted
// pulls — including the per-component delta bases — instead of an empty
// fleet.
func (f *Fleet) persist() {
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

// PeersWithState counts configured peers whose state is held — pulled
// this run or recovered from the cluster directory. The readiness probe
// gates on it: a coordinator with zero peer states has nothing real to
// serve.
func (f *Fleet) PeersWithState() int {
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

// PeerHealth snapshots every configured peer's circuit-breaker health,
// keyed by peer URL, for /readyz. Quarantined peers do not fail
// readiness — the held contribution keeps serving, which is the point
// of quarantine — they are surfaced so operators and balancers can see
// which constituents are stale.
func (f *Fleet) PeerHealth() map[string]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := make(map[string]string, len(f.peers))
	for _, pe := range f.peers {
		m[pe.url] = pe.healthLocked().String()
	}
	return m
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

// Status is the cluster block of a /status reply.
type Status struct {
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
func (f *Fleet) status() (peers []PeerStatus, saveErr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	peers = make([]PeerStatus, 0, len(f.peers))
	for _, pe := range f.peers {
		peers = append(peers, PeerStatus{
			URL:                 pe.url,
			NodeID:              pe.nodeID,
			Version:             pe.top,
			N:                   pe.n,
			Components:          len(pe.comps),
			LastPullAgeSeconds:  pullAge(pe.pulledAt),
			ConsecutiveFailures: pe.fails,
			LastError:           pe.lastErr,
			Health:              pe.healthLocked().String(),
			PoisonFailures:      pe.poisonFails,
			Quarantines:         pe.quarantines,
		})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].URL < peers[j].URL })
	if f.lastSaveErr != nil {
		saveErr = f.lastSaveErr.Error()
	}
	return peers, saveErr
}

// pullAge is the seconds since a peer's last successful pull, or -1
// before the first. It is clamped at zero: a pulledAt stamp whose
// monotonic reading was stripped (marshaled status, or a Round(0)
// anywhere upstream) falls back to wall-clock arithmetic, and a wall
// clock stepped backwards would otherwise report a negative age —
// indistinguishable from the "never pulled" -1 sentinel.
func pullAge(pulledAt time.Time) float64 {
	if pulledAt.IsZero() {
		return -1
	}
	return max(time.Since(pulledAt).Seconds(), 0)
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

// ViewStatus joins the serving epoch's composition (what each peer
// contributed to the view) with the fleet's latest pulls (what each
// peer has now), yielding per-peer staleness.
func (f *Fleet) ViewStatus(v *view.View) []PeerViewStatus {
	inView := make(map[string]view.Component, len(v.Components))
	for _, c := range v.Components {
		inView[c.URL] = c
	}
	current, _ := f.status()
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
		pvs.StalenessReports = max(pvs.CurrentN-pvs.ViewN, 0)
		out = append(out, pvs)
	}
	return out
}
