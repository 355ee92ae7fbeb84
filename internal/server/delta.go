package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/wire"
)

// Componentized /state exports and the delta handshake, exporter side.
//
// A componentized export (GET /state?components=1) ships the node's
// state as named components: an edge's per-shard states ("<node>/<i>"),
// a windowed edge's single window ("<node>"), or a coordinator's held
// peer components passed through with their original ids. A puller that
// acknowledges its last accepted export version (?since= plus
// If-None-Match) gets either a 304 (nothing moved), a delta frame (only
// the components whose version moved since that base, plus removed ids),
// or a full frame when the base is unknown — too old for the history
// ring, from before a restart (the version salt changed), or never
// served by this process. A puller that adds diff=1 lets the components
// of a delta frame arrive as counter differences from the versions it
// holds (wire/diff.go): the node keeps the blobs of its latest export,
// and a moved component whose blob at the base is still among them
// ships as a diff when that is the smaller payload.

// exportHistorySize bounds the per-node ring of remembered export
// labels. A coordinator pulls each peer once per interval, so 64 entries
// cover many minutes of bases even with several pullers; anything older
// falls back to a full frame, which is always correct.
const exportHistorySize = 64

// exportHistory remembers, for recent export labels, the per-component
// version vector the label corresponds to — what a delta against that
// base must be computed from. Labels are recorded conservatively: when
// the same label is recorded twice (two exports racing one mutation can
// share it), the vectors are merged element-wise toward the *minimum*
// and ids missing from either side are dropped. Every frame served under
// a label carries component versions at least as new as its own
// recording, so the merged (older) vector can only classify more
// components as changed — a delta may re-ship an unchanged component,
// but never skips one some holder of that base is missing.
type exportHistory struct {
	mu      sync.Mutex
	entries []histEntry // insertion order; oldest first
}

type histEntry struct {
	top uint64
	vec map[string]uint64
}

func (h *exportHistory) record(top uint64, vec map[string]uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.entries {
		e := &h.entries[i]
		if e.top != top {
			continue
		}
		for id, old := range e.vec {
			now, ok := vec[id]
			if !ok {
				delete(e.vec, id)
				continue
			}
			if now < old {
				e.vec[id] = now
			}
		}
		return
	}
	cp := make(map[string]uint64, len(vec))
	for id, v := range vec {
		cp[id] = v
	}
	h.entries = append(h.entries, histEntry{top: top, vec: cp})
	if len(h.entries) > exportHistorySize {
		h.entries = h.entries[len(h.entries)-exportHistorySize:]
	}
}

// lookup returns a private copy of the vector recorded for base.
func (h *exportHistory) lookup(base uint64) (map[string]uint64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.entries {
		if h.entries[i].top != base {
			continue
		}
		cp := make(map[string]uint64, len(h.entries[i].vec))
		for id, v := range h.entries[i].vec {
			cp[id] = v
		}
		return cp, true
	}
	return nil, false
}

// shardComponentID names one shard of a node's sharded aggregator
// fleet-wide.
func shardComponentID(nodeID string, shard int) string {
	return nodeID + "/" + strconv.Itoa(shard)
}

// stateExport is one componentized export: the top label, the components
// sorted by id, and the version vector a delta base against this export
// must be diffed with. The node keeps its latest one, so that the next
// export can reuse the blobs of shards that did not move and diff the
// ones that did against what the puller holds; blobs are shared with the
// fleet or the previous export, never copied.
type stateExport struct {
	top   uint64
	comps []wire.StateComponent
	vec   map[string]uint64
	// shards holds the blobs of comps the way ExportShardsReusing takes
	// them back (sharded nodes only).
	shards []core.ShardExport
}

// component returns the export's component of that id.
func (e *stateExport) component(id string) (wire.StateComponent, bool) {
	i := sort.Search(len(e.comps), func(i int) bool { return e.comps[i].ID >= id })
	if i == len(e.comps) || e.comps[i].ID != id {
		return wire.StateComponent{}, false
	}
	return e.comps[i], true
}

// exportComponents captures the node's state as components, marshaling
// only the shards that moved since prev (the node's previous export, or
// nil). The top label is read before any component state is captured,
// so it can only trail the content (re-transfer, never skip). Component
// versions from the local pipeline are offset by the process version
// salt, exactly like the top label; a coordinator's pass-through
// components keep their origin's (already salted) labels.
func (s *Server) exportComponents(prev *stateExport) (*stateExport, error) {
	exp := &stateExport{}
	switch {
	case s.fleet != nil:
		exp.top, exp.comps, exp.vec = s.fleet.exportComponents()
		exp.top += s.verSalt
	case s.win != nil:
		// The window is one component: expiry shrinks its state, so
		// per-shard deltas would need exact removal tracking; shipping
		// the (already bounded) window as one component when it moved is
		// simpler and still skips the transfer entirely when it didn't.
		exp.top = s.verSalt + s.win.Version()
		snap, err := s.win.Snapshot()
		if err != nil {
			return nil, err
		}
		blob, err := snap.MarshalState()
		if err != nil {
			return nil, err
		}
		exp.comps = []wire.StateComponent{{ID: s.nodeID, Version: exp.top, N: snap.N(), State: blob}}
		exp.vec = map[string]uint64{s.nodeID: exp.top}
	default:
		exp.top = s.verSalt + s.agg.Version()
		var held []core.ShardExport
		if prev != nil {
			held = prev.shards
		}
		exps, vers, err := s.agg.ExportShardsReusing(held)
		if err != nil {
			return nil, err
		}
		exp.shards = exps
		exp.comps = make([]wire.StateComponent, 0, len(exps))
		for _, e := range exps {
			exp.comps = append(exp.comps, wire.StateComponent{
				ID:      shardComponentID(s.nodeID, e.Index),
				Version: s.verSalt + e.Version,
				N:       e.N,
				State:   e.State,
			})
		}
		exp.vec = make(map[string]uint64, len(vers))
		for i, v := range vers {
			exp.vec[shardComponentID(s.nodeID, i)] = s.verSalt + v
		}
	}
	wire.SortComponents(exp.comps)
	return exp, nil
}

// exportComponents passes the coordinator's held peer components through
// with their original ids and labels, so a root coordinator one tier up
// can deduplicate, cycle-check, and delta-diff the fleet's true
// constituents across any number of mid tiers. The top label and the
// component set are read under one lock acquisition, so repeated labels
// always describe identical vectors.
func (f *fleet) exportComponents() (top uint64, comps []wire.StateComponent, vec map[string]uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	top = f.ver.Load()
	vec = make(map[string]uint64)
	for _, pe := range f.peers {
		for id, c := range pe.comps {
			comps = append(comps, wire.StateComponent{ID: id, Version: c.version, N: c.n, State: c.state})
			vec[id] = c.version
		}
	}
	return top, comps, vec
}

// stateETag formats a state version as the ETag GET /state serves and
// If-None-Match echoes back.
func stateETag(ver uint64) string {
	return `"` + strconv.FormatUint(ver, 10) + `"`
}

// parseStateBase extracts the puller's acknowledged base version from an
// If-None-Match header or a ?since= query parameter (the header wins
// when both are present and disagree, being the more standard channel).
func parseStateBase(etag, since string) (uint64, bool) {
	if etag != "" {
		trimmed := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(etag), `"`), `"`)
		if v, err := strconv.ParseUint(trimmed, 10, 64); err == nil {
			return v, true
		}
	}
	if since != "" {
		if v, err := strconv.ParseUint(since, 10, 64); err == nil {
			return v, true
		}
	}
	return 0, false
}

// deltaAgainst narrows a full componentized export to a delta frame
// against the base vector: only components whose label moved (or are
// new) ship, and ids present at the base but gone now are listed as
// removed. The frame keeps the full export's top label and total count,
// so the importer can cross-check the fold. With held set (the node's
// previous export, for a puller that asked for diffs), a shipped
// component whose blob at the base version is still in it is offered to
// the encoder as that base.
func deltaAgainst(full wire.ComponentFrame, base uint64, baseVec, curVec map[string]uint64, held *stateExport) wire.ComponentFrame {
	delta := wire.ComponentFrame{
		NodeID:      full.NodeID,
		Version:     full.Version,
		Delta:       true,
		BaseVersion: base,
		N:           full.N,
	}
	for _, c := range full.Components {
		v, atBase := baseVec[c.ID]
		if atBase && v == c.Version {
			continue
		}
		if atBase && held != nil {
			if old, ok := held.component(c.ID); ok && old.Version == v {
				c.Base = &wire.ComponentBase{Version: v, State: old.State}
			}
		}
		delta.Components = append(delta.Components, c)
	}
	for id := range baseVec {
		if _, ok := curVec[id]; !ok {
			delta.Removed = append(delta.Removed, id)
		}
	}
	sort.Strings(delta.Removed)
	return delta
}

// sumComponentReports totals the report counts of an export's
// components — the frame-level N every componentized export declares.
func sumComponentReports(comps []wire.StateComponent) (int, error) {
	n := 0
	for _, c := range comps {
		if c.N < 0 || n+c.N < n {
			return 0, fmt.Errorf("component %q report count overflows the total", c.ID)
		}
		n += c.N
	}
	return n, nil
}
