package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ldpmarginals/internal/core"
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
// label re-serves the retained export (Exporter.export), so a label is
// recorded once, with the one vector it is ever served with.
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

// Exporter serves a node's state on GET /state: an ingesting node's
// merged shards (or window), or a coordinator's Fleet passed through
// component by component, so coordinators can themselves be pulled and
// stack into aggregation trees.
type Exporter struct {
	nodeID string
	src    Source
	fleet  *Fleet // src, on a coordinator

	// salt offsets the exported state version with a per-process random
	// value. The in-memory mutation counters restart at zero with the
	// process, so without the salt a node that crashed, recovered a
	// *different* state (reports inside the fsync window are lost), and
	// reached the same counter value could be skipped by a coordinator
	// as "unchanged". Consumers compare version labels only for
	// equality, so the salt costs nothing and makes cross-restart
	// collisions vanishingly unlikely. It is drawn from [2^62, 2^63):
	// 62 random bits, and every label is a nine-byte uvarint that no
	// realistic mutation count carries into a tenth, so a frame's size
	// is a function of its content alone.
	salt uint64

	// hist remembers recent export labels and their per-component
	// version vectors — the bases deltas are diffed against. In-memory
	// only: a restart (which re-salts the version label anyway) empties
	// it, and pullers then fall back to one full frame.
	hist exportHistory
	// mu orders exports; it guards last (the latest one: what an
	// unchanged label is served from and the next export's diffs are
	// taken against), arena (the merged local state the next export
	// re-folds only moved parts into; empty until the first export) and
	// the parts slice it reuses.
	mu    sync.Mutex
	last  *stateExport
	arena *core.FoldArena
	parts []core.Part
}

// NewExporter builds the exporter of src, the node's state, under the
// node's id and a freshly drawn version salt.
func NewExporter(p core.Protocol, src Source, nodeID string) (*Exporter, error) {
	var salt [8]byte
	if _, err := rand.Read(salt[:]); err != nil {
		return nil, fmt.Errorf("cluster: generating version salt: %w", err)
	}
	e := &Exporter{
		nodeID: nodeID,
		src:    src,
		salt:   1<<62 | binary.LittleEndian.Uint64(salt[:])>>2,
		arena:  core.NewFoldArena(p.NewAggregator),
	}
	e.fleet, _ = src.(*Fleet)
	return e, nil
}

// Version is the label a /state export carries right now: the source's
// mutation counter (fleet-wide on a coordinator) offset by the
// per-process salt. It must be read *before* the state snapshot it
// labels — a trailing label makes a future pull re-transfer, never
// skip, fresh data.
func (e *Exporter) Version() uint64 { return e.salt + e.src.Version() }

// ServeState answers GET /state with a componentized wire.ComponentFrame
// — one component per ingesting node (its merged shards, or its window)
// or, from a coordinator, per constituent node, each with its own
// version label — and the query names nothing but the base: 304 Not
// Modified when the caller's If-None-Match (or ?since=) base equals the
// current version, a delta frame shipping only the components that
// moved since a known, non-current base (each offered as its counter
// difference from the base's blob, dense or sparse, when this node still
// holds that blob and the difference is the smaller payload), and a full
// frame otherwise. An unknown base — expired from the history ring, or
// from before a restart (the version salt changed) — falls back to a
// full frame. It returns an error, having written nothing, when the
// state cannot be exported.
func (e *Exporter) ServeState(w http.ResponseWriter, r *http.Request) error {
	base, haveBase := parseStateBase(r.Header.Get("If-None-Match"), r.URL.Query().Get("since"))
	if haveBase {
		// Short-circuit before any state is marshaled: an unchanged peer
		// costs headers, not an O(2^d) snapshot plus transfer.
		if ver := e.Version(); base == ver {
			w.Header().Set("ETag", stateETag(ver))
			w.WriteHeader(http.StatusNotModified)
			return nil
		}
	}
	exp, held, err := e.export()
	if err != nil {
		return fmt.Errorf("exporting state components: %w", err)
	}
	total, err := sumComponentReports(exp.comps)
	if err != nil {
		return fmt.Errorf("exporting state components: %w", err)
	}
	top := exp.top
	frame := wire.ComponentFrame{NodeID: e.nodeID, Version: top, N: total, Components: exp.comps}
	mode, encode := "full", exp.fullFrame
	if haveBase && base != top {
		if baseVec, ok := e.hist.lookup(base); ok {
			frame = deltaAgainst(frame, base, baseVec, exp.vec, held)
			mode, encode = "delta", wire.EncodeComponentFrame
		}
	}
	buf, err := encode(frame)
	if err != nil {
		return fmt.Errorf("framing state components: %w", err)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Header().Set("ETag", stateETag(top))
	w.Header().Set("X-LDP-Frame", mode)
	_, _ = w.Write(buf)
	return nil
}

// export returns the node's state as components, and the export
// retained before this call — the blobs a diff is taken against.
// Exports run one at a time: the later of two concurrent pullers is the
// one whose export is retained, and while the top label has not moved
// the retained export is served again without touching the aggregator.
// A new export's label is entered in the history ring.
// The top label is read before any component state is captured, so it
// can only trail the content (re-transfer, never skip). An ingesting
// node is one component, named by the node and labeled with the top
// label (both offset by the process version salt); a coordinator's
// pass-through components keep their origin's (already salted) labels.
func (e *Exporter) export() (exp, held *stateExport, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	held = e.last
	top := e.Version()
	if held != nil && held.top == top {
		return held, held, nil
	}
	exp = &stateExport{top: top}
	if e.fleet != nil {
		exp.top, exp.comps, exp.vec = e.fleet.exportComponents()
		exp.top += e.salt
		wire.SortComponents(exp.comps)
	} else {
		snap, err := e.snapshot()
		if err != nil {
			return nil, nil, err
		}
		blob, err := snap.MarshalState()
		if err != nil {
			return nil, nil, err
		}
		exp.comps = []wire.StateComponent{{ID: e.nodeID, Version: top, N: snap.N(), State: blob}}
		exp.vec = map[string]uint64{e.nodeID: top}
	}
	e.hist.record(exp.top, exp.vec)
	e.last = exp
	return exp, held, nil
}

// snapshot merges the node's shards (or window) for an export; callers
// hold mu. The merge lives in an arena of the exporter's own, so a pull
// after one shard moved re-folds that shard instead of re-merging all
// of them; the returned aggregator is the arena's and is valid until the
// next call.
func (e *Exporter) snapshot() (core.Aggregator, error) {
	e.parts = e.src.AppendParts(e.parts[:0])
	_, err := e.arena.Sync(e.parts)
	clear(e.parts)
	if err != nil {
		return nil, err
	}
	return e.arena.State(), nil
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
