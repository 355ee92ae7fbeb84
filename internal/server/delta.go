package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/view"
	"ldpmarginals/internal/wire"
)

// Componentized /state exports and the delta handshake, exporter side.
//
// GET /state ships the node's state as named components: an ingesting
// node's one merged state ("<node>" — every estimator reads only the
// summed counters, so nothing is lost by merging the shards before they
// ship, and one dense vector deflates to a fraction of what its sparse
// per-shard addends do), or a coordinator's held peer components passed
// through with their original ids. A puller that acknowledges its last
// accepted export version (?since= plus If-None-Match) gets either a 304
// (nothing moved), a delta frame (only the components whose version
// moved since that base, plus removed ids), or a full frame when the
// base is unknown — too old for the history ring, from before a restart
// (the version salt changed), or never served by this process. The
// components of a delta frame may arrive as counter differences from
// the versions the puller holds (wire/diff.go): the node keeps the blobs
// of its latest export, and a moved component whose blob at the base is
// still among them ships as a diff, dense or sparse, when that is the
// smaller payload — bytes proportional to the counters that moved,
// whatever the component's size. The query carries nothing else: every
// puller is sent the one frame form.

// exportHistorySize bounds the per-node ring of remembered export
// labels. A coordinator pulls each peer once per interval, so 64 entries
// cover many minutes of bases even with several pullers; anything older
// falls back to a full frame, which is always correct.
const exportHistorySize = 64

// exportHistory remembers, for recent export labels, the per-component
// version vector the label corresponds to — what a delta against that
// base must be computed from. Exports are serialized and an unchanged
// label re-serves the retained export (Server.exportComponents), so a
// label is recorded once, with the one vector it is ever served with.
type exportHistory struct {
	mu      sync.Mutex
	entries []histEntry // insertion order; oldest first
}

type histEntry struct {
	top uint64
	vec map[string]uint64
}

// record remembers vec (which the caller must not mutate afterwards)
// as the vector behind the new label top.
func (h *exportHistory) record(top uint64, vec map[string]uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries = append(h.entries, histEntry{top: top, vec: vec})
	if len(h.entries) > exportHistorySize {
		h.entries = h.entries[len(h.entries)-exportHistorySize:]
	}
}

// lookup returns the vector recorded for base; vectors are immutable
// once recorded.
func (h *exportHistory) lookup(base uint64) (map[string]uint64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.entries {
		if h.entries[i].top == base {
			return h.entries[i].vec, true
		}
	}
	return nil, false
}

// stateExport is one componentized export: the top label, the components
// sorted by id, and the version vector a delta base against this export
// must be diffed with. The node keeps its latest one, so that the next
// export can diff the components that moved against what the puller
// holds; blobs are shared with the fleet, never copied.
type stateExport struct {
	top   uint64
	comps []wire.StateComponent
	vec   map[string]uint64

	// The export's full frame, deflated once however many pullers ask for
	// it while the label stands still.
	fullOnce sync.Once
	full     []byte
	fullErr  error
}

// fullFrame returns the encoding of frame, which must be this export's
// full frame.
func (e *stateExport) fullFrame(frame wire.ComponentFrame) ([]byte, error) {
	e.fullOnce.Do(func() { e.full, e.fullErr = wire.EncodeComponentFrame(frame) })
	return e.full, e.fullErr
}

// component returns the export's component of that id.
func (e *stateExport) component(id string) (wire.StateComponent, bool) {
	i := sort.Search(len(e.comps), func(i int) bool { return e.comps[i].ID >= id })
	if i == len(e.comps) || e.comps[i].ID != id {
		return wire.StateComponent{}, false
	}
	return e.comps[i], true
}

// exportComponents returns the node's state as components, and the
// export retained before this call — the blobs a diff is taken against.
// Exports run one at a time: the later of two concurrent pullers is the
// one whose export is retained, and while the top label has not moved
// the retained export is served again without touching the aggregator.
// A new export's label is entered in the history ring.
// The top label is read before any component state is captured, so it
// can only trail the content (re-transfer, never skip). An ingesting
// node is one component, named by the node and labeled with the top
// label (both offset by the process version salt); a coordinator's
// pass-through components keep their origin's (already salted) labels.
func (s *Server) exportComponents() (exp, held *stateExport, err error) {
	s.exportMu.Lock()
	defer s.exportMu.Unlock()
	held = s.lastExport
	top := s.stateVersion()
	if held != nil && held.top == top {
		return held, held, nil
	}
	exp = &stateExport{top: top}
	if s.fleet != nil {
		exp.top, exp.comps, exp.vec = s.fleet.exportComponents()
		exp.top += s.verSalt
		wire.SortComponents(exp.comps)
	} else {
		snap, err := s.exportSnapshot()
		if err != nil {
			return nil, nil, err
		}
		blob, err := snap.MarshalState()
		if err != nil {
			return nil, nil, err
		}
		exp.comps = []wire.StateComponent{{ID: s.nodeID, Version: top, N: snap.N(), State: blob}}
		exp.vec = map[string]uint64{s.nodeID: top}
	}
	s.stateHist.record(exp.top, exp.vec)
	s.lastExport = exp
	return exp, held, nil
}

// exportSnapshot merges the node's shards (or window) for an export;
// callers hold exportMu. The merge lives in an arena of the exporter's
// own, so a pull after one shard moved re-folds that shard instead of
// re-merging all of them; the returned aggregator is the arena's and is
// valid until the next call. Protocols without exact folds are
// snapshotted whole.
func (s *Server) exportSnapshot() (core.Aggregator, error) {
	var src view.DeltaSource = s.agg
	if s.win != nil {
		src = s.win
	}
	if s.exportArena == nil {
		// Built on the first export: a node nobody pulls never pays the
		// (shards+1) state copies.
		if s.exportArena = src.NewSnapshotArena(); s.exportArena == nil {
			return src.Snapshot()
		}
	}
	if _, err := src.SnapshotDeltaInto(s.exportArena); err != nil {
		return nil, err
	}
	return s.exportArena.State(), nil
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
// so the importer can cross-check the fold. A shipped component whose
// blob at the base version is still in held (the node's previous export)
// is offered to the encoder as that base.
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
