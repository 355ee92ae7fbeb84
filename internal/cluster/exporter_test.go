package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/window"
	"ldpmarginals/internal/wire"
)

// serveState answers one GET /state?query from e, acknowledging base as
// If-None-Match when it is set.
func serveState(t *testing.T, e *Exporter, query, base string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/state?"+query, nil)
	if base != "" {
		req.Header.Set("If-None-Match", base)
	}
	rec := httptest.NewRecorder()
	if err := e.ServeState(rec, req); err != nil {
		t.Fatal(err)
	}
	return rec
}

// holding is the base lookup of a puller that holds the components of
// the frame it was served.
func holding(f wire.ComponentFrame) func(string) (wire.ComponentBase, bool) {
	return func(id string) (wire.ComponentBase, bool) {
		for _, c := range f.Components {
			if c.ID == id {
				return wire.ComponentBase{Version: c.Version, State: c.State}, true
			}
		}
		return wire.ComponentBase{}, false
	}
}

// TestParseStateBase: the base a puller acknowledges arrives as an
// If-None-Match ETag, as ?since=, or both. The header wins a
// disagreement; a header that is not a strong decimal ETag is ignored in
// favor of ?since=; a request naming no base gets a full frame.
func TestParseStateBase(t *testing.T) {
	for _, tc := range []struct {
		name, etag, since string
		want              uint64
		ok                bool
	}{
		{"If-None-Match only", `"5"`, "", 5, true},
		{"since only", "", "7", 7, true},
		{"both agreeing", `"9"`, "9", 9, true},
		{"both disagreeing: the header wins", `"9"`, "4", 9, true},
		{"malformed header: since is used", `"x5"`, "6", 6, true},
		{"weak header: since is used", `W/"5"`, "6", 6, true},
		{"malformed header alone", `W/"5"`, "", 0, false},
		{"malformed since alone", "", "-1", 0, false},
		{"neither: a full frame", "", "", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseStateBase(tc.etag, tc.since)
			if got != tc.want || ok != tc.ok {
				t.Fatalf("parseStateBase(%q, %q) = %d, %v; want %d, %v", tc.etag, tc.since, got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestExportAtUnchangedLabelServesRetained: while the top label has not
// moved, every export is the retained one — no snapshot, no marshal, no
// second deflate of its full frame — and the export before a move is
// what the next one hands out as the diff base, for cumulative and
// windowed nodes alike.
func TestExportAtUnchangedLabelServesRetained(t *testing.T) {
	p, err := core.New(core.InpHT, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeReports(t, p, 60, 3)
	for name, opts := range map[string]window.Options{
		"cumulative": {Shards: 3},
		"windowed":   {Shards: 3, Window: time.Hour, Bucket: time.Minute},
	} {
		t.Run(name, func(t *testing.T) {
			ring, e := newTestEdge(t, p, "e", opts)
			if err := ring.ConsumeBatch(reps[:40]); err != nil {
				t.Fatal(err)
			}
			first, _, err := e.export()
			if err != nil {
				t.Fatal(err)
			}
			again, held, err := e.export()
			if err != nil {
				t.Fatal(err)
			}
			if again != first || held != first {
				t.Fatal("an export at an unchanged label was built again")
			}
			// Its full frame is deflated once, for whoever asks first.
			body := serveState(t, e, "", "").Body.Bytes()
			encoded := &first.full[0]
			body2 := serveState(t, e, "", "").Body.Bytes()
			if !bytes.Equal(body, first.full) || !bytes.Equal(body2, first.full) || &first.full[0] != encoded {
				t.Fatal("full frames at an unchanged label are not the one retained encoding")
			}
			if err := ring.ConsumeBatch(reps[40:]); err != nil {
				t.Fatal(err)
			}
			next, held, err := e.export()
			if err != nil {
				t.Fatal(err)
			}
			if next == first || held != first || next.comps[0].N != 60 || next.comps[0].Version != next.top {
				t.Fatalf("export after a move: %+v (held is the previous one: %v)", next.comps[0], held == first)
			}
			// What the arena folded is what a fresh merge marshals.
			snap, err := ring.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, err := snap.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(next.comps[0].State, want) {
				t.Fatal("exported blob differs from a fresh snapshot's")
			}
		})
	}
}

// TestStateIgnoresQueryTokens: /state reads nothing from the query but
// the base. Twin edges — one node id, one version salt, the same reports
// — asked with no query and with every token coordinators once sent
// (components=1&diff=1&sparse=2&compact=1) serve byte-identical full and
// delta frames, and a delta that names only its base, as ?since=, ships
// the moved component as a sparse diff.
func TestStateIgnoresQueryTokens(t *testing.T) {
	p, err := core.New(core.InpPS, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	plainRing, plain := newTestEdge(t, p, "edge-1", window.Options{Shards: 1})
	tokensRing, tokens := newTestEdge(t, p, "edge-1", window.Options{Shards: 1})
	tokens.salt = plain.salt
	const tokenQuery = "components=1&diff=1&sparse=2&compact=1"
	reps := makeReports(t, p, 102, 23)
	ingest := func(reps []core.Report) {
		t.Helper()
		for _, ring := range []*window.Ring{plainRing, tokensRing} {
			if err := ring.ConsumeBatch(reps); err != nil {
				t.Fatal(err)
			}
		}
	}
	// reply is the body, ETag and X-LDP-Frame mode of one /state answer.
	reply := func(e *Exporter, query string) ([]byte, string, string) {
		t.Helper()
		rec := serveState(t, e, query, "")
		return rec.Body.Bytes(), rec.Header().Get("ETag"), rec.Header().Get("X-LDP-Frame")
	}

	ingest(reps[:100])
	full, etag, mode := reply(plain, "")
	fullTokens, _, modeTokens := reply(tokens, tokenQuery)
	if mode != "full" || modeTokens != "full" || !bytes.Equal(full, fullTokens) {
		t.Fatalf("full frames: %s of %d bytes, with the tokens %s of %d, not the same bytes", mode, len(full), modeTokens, len(fullTokens))
	}
	held, err := wire.DecodeComponentFrame(full, 1<<24)
	if err != nil {
		t.Fatal(err)
	}

	// Two reports move at most two of the 64 counters.
	ingest(reps[100:])
	since := "since=" + strings.Trim(etag, `"`)
	delta, _, mode := reply(plain, since)
	deltaTokens, _, modeTokens := reply(tokens, tokenQuery+"&"+since)
	if mode != "delta" || modeTokens != "delta" || !bytes.Equal(delta, deltaTokens) {
		t.Fatalf("deltas: %s of %d bytes, with the tokens %s of %d, not the same bytes", mode, len(delta), modeTokens, len(deltaTokens))
	}
	cf, err := wire.DecodeComponentFrameWith(delta, 1<<24, holding(held))
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Components) != 1 || cf.Components[0].Base == nil || !cf.Components[0].Base.Sparse {
		t.Fatalf("delta of two reports ships %+v, want the node's component as a sparse diff", cf.Components)
	}
}
