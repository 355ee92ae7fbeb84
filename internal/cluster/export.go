package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net/http"
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
// (nothing moved), a delta against the export the node retains when
// that is the base, else a full frame. A delta ships only the components
// whose version moved since the retained export, plus removed ids, and a
// moved component may arrive as its counter difference from the
// retained blob (wire/diff.go), dense or sparse, when that is the
// smaller payload — bytes proportional to the counters that moved,
// whatever the component's size. Any other base — an older export, one
// from before a restart (the version salt changed), or one never served
// by this process — gets the full frame, which is always a correct
// answer: the counters only sum. The query carries nothing else: every
// puller is sent the one frame form.

// stateExport is one componentized export: the top label and the
// components sorted by id. The node keeps its latest one, the one base
// a delta is cut against; blobs are shared with the fleet, never
// copied.
type stateExport struct {
	top   uint64
	comps []wire.StateComponent

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

	// mu orders exports; it guards last (the latest one: what an
	// unchanged label is served from and the one base a delta is cut
	// against; in-memory only, so after a restart every puller gets one
	// full frame), arena (the merged local state the next export
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
// current version, a delta frame against the export the node retains
// when the base is that export's label (only the components that moved
// since it, each offered as its counter difference from the retained
// blob, dense or sparse, when the difference is the smaller payload),
// and a full frame otherwise — for an older base, one from before a
// restart (the version salt changed), or no base at all. It returns an
// error, having written nothing, when the state cannot be exported.
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
	if haveBase && base != top && held != nil && base == held.top {
		frame = deltaAgainst(frame, held)
		mode, encode = "delta", wire.EncodeComponentFrame
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
// retained before this call — the one base a delta is cut against.
// Exports run one at a time: the later of two concurrent pullers is the
// one whose export is retained, and while the top label has not moved
// the retained export is served again without touching the aggregator.
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
		exp.top, exp.comps = e.fleet.exportComponents()
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
	}
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
// against held, the export retained before it: a component whose
// version is the one held carries no news and is skipped, any other
// ships, offered to the encoder as a diff from held's blob when held has
// its id, and ids held has that the export lacks are listed as removed.
// Both component lists are sorted by id, so one merge walk pairs them.
// The frame keeps the full export's top label and total count, so the
// importer can cross-check the fold.
func deltaAgainst(full wire.ComponentFrame, held *stateExport) wire.ComponentFrame {
	delta := wire.ComponentFrame{
		NodeID:      full.NodeID,
		Version:     full.Version,
		Delta:       true,
		BaseVersion: held.top,
		N:           full.N,
	}
	cur, old := full.Components, held.comps
	for len(cur) > 0 || len(old) > 0 {
		switch {
		case len(cur) == 0 || len(old) > 0 && old[0].ID < cur[0].ID:
			delta.Removed = append(delta.Removed, old[0].ID)
			old = old[1:]
		case len(old) == 0 || cur[0].ID < old[0].ID:
			delta.Components = append(delta.Components, cur[0])
			cur = cur[1:]
		default:
			if c := cur[0]; c.Version != old[0].Version {
				c.Base = &wire.ComponentBase{Version: old[0].Version, State: old[0].State}
				delta.Components = append(delta.Components, c)
			}
			cur, old = cur[1:], old[1:]
		}
	}
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
