package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/wire"
)

// advanceWindow rotates the ring up to now and propagates the
// lifecycle: sealed buckets recover ledger budget, and on a durable node
// the ring advances inside one store crossing, which writes each newly
// sealed bucket once and deletes each expired bucket's file and
// segments, so window expiry doubles as disk retention.
func (s *Server) advanceWindow(now time.Time) error {
	_, _, err := s.advanceWindowContext(context.Background(), now)
	return err
}

// windowedOptions is the standard windowed deployment tests rotate by
// hand: buckets are long enough that the background rotation never fires
// on real wall time, and tests drive advanceWindow with synthetic
// times instead.
func windowedOptions() Options {
	return Options{Window: time.Hour, Bucket: 10 * time.Minute}
}

// windowReports perturbs n reports for p from a deterministic stream.
func windowReports(t *testing.T, p core.Protocol, n int, seed uint64) []core.Report {
	t.Helper()
	client := p.NewClient()
	r := rng.New(seed)
	reps := make([]core.Report, n)
	for i := range reps {
		rep, err := client.Perturb(uint64(i%64), r)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

// postBatch posts a report batch and requires the whole batch accepted.
func postBatch(t *testing.T, url string, p core.Protocol, reps []core.Report) {
	t.Helper()
	resp, err := http.Post(url+"/report/batch", "application/octet-stream", bytes.NewReader(mustBatch(t, p, reps...)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || br.Accepted != len(reps) {
		t.Fatalf("batch status %d accepted %d/%d: %s", resp.StatusCode, br.Accepted, len(reps), br.Error)
	}
}

// stateBytes pulls GET /state and returns the canonical aggregator
// state blob and its declared report count.
func stateBytes(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /state: status %d err %v", resp.StatusCode, err)
	}
	cf, err := wire.DecodeComponentFrame(body, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Components) != 1 {
		t.Fatalf("GET /state: %d components, want the node's one", len(cf.Components))
	}
	return cf.Components[0].State, cf.N
}

// referenceBytes is the canonical marshaled state of a fresh aggregator
// fed reps directly — the single-aggregator ground truth windowed
// deployments must stay bit-identical to.
func referenceBytes(t *testing.T, p core.Protocol, reps []core.Report) []byte {
	t.Helper()
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	blob, err := agg.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestWindowedServerBitIdentityAllProtocols is the acceptance pin of
// the continual-release tier at the HTTP layer: for each served
// protocol, a windowed deployment whose window still covers every
// bucket — including across hand-driven bucket rotations — must export
// /state bytes identical to a single cumulative aggregator fed the same
// stream, and serve the same /marginal cells.
func TestWindowedServerBitIdentityAllProtocols(t *testing.T) {
	for _, p := range servedProtocols(t, core.Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true}) {
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			s, err := NewWithOptions(p, windowedOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)

			reps := windowReports(t, p, 600, 7)
			var all []core.Report
			base := time.Now()
			for chunk := 0; chunk < 3; chunk++ {
				postBatch(t, ts.URL, p, reps[chunk*200:(chunk+1)*200])
				all = reps[:(chunk+1)*200]
				got, n := stateBytes(t, ts.URL)
				if n != len(all) {
					t.Fatalf("chunk %d: /state declares %d reports, want %d", chunk, n, len(all))
				}
				if !bytes.Equal(got, referenceBytes(t, p, all)) {
					t.Fatalf("chunk %d: windowed /state differs from the cumulative reference", chunk)
				}
				// Seal the live bucket; the window (6 buckets) still covers
				// everything, so identity must hold across the rotation too.
				if err := s.advanceWindow(base.Add(time.Duration(chunk+1) * 10 * time.Minute)); err != nil {
					t.Fatal(err)
				}
			}
			if st := s.ring.Status(); st.SealedBuckets != 3 || st.Expired != 0 {
				t.Fatalf("ring status after 3 seals: %+v", st)
			}
			got, _ := stateBytes(t, ts.URL)
			if !bytes.Equal(got, referenceBytes(t, p, all)) {
				t.Fatal("windowed /state differs from the cumulative reference after sealing")
			}
			postRefresh(t, ts.URL)
			resp, err := http.Get(ts.URL + "/marginal?beta=3&window=1h")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var mr MarginalResponse
			if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("windowed marginal: status %d err %v", resp.StatusCode, err)
			}
			if mr.N != len(all) || len(mr.Cells) != 4 {
				t.Fatalf("windowed marginal = %+v", mr)
			}
		})
	}
}

// TestWindowedServerExpiryDropsOldReports drives a full slide: reports
// older than the window must leave the estimate, the export, and the
// report count, while surviving buckets stay bit-identical to a
// cumulative aggregator fed only the surviving reports.
func TestWindowedServerExpiryDropsOldReports(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 3 buckets of 10m: chunk A lands in bucket 0, B in bucket 1; by the
	// 3rd rotation A's bucket has slid out.
	s, err := NewWithOptions(p, Options{Window: 30 * time.Minute, Bucket: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	reps := windowReports(t, p, 400, 11)
	base := time.Now()
	postBatch(t, ts.URL, p, reps[:200]) // chunk A
	if err := s.advanceWindow(base.Add(10 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	postBatch(t, ts.URL, p, reps[200:]) // chunk B
	if err := s.advanceWindow(base.Add(30 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Bucket 0 (chunk A) has seq+buckets == curSeq: expired.
	if st := s.ring.Status(); st.Expired != 1 {
		t.Fatalf("ring status after slide: %+v, want 1 expired bucket", st)
	}
	got, n := stateBytes(t, ts.URL)
	if n != 200 {
		t.Fatalf("/state declares %d reports, want the 200 inside the window", n)
	}
	if !bytes.Equal(got, referenceBytes(t, p, reps[200:])) {
		t.Fatal("post-expiry /state differs from the surviving chunk's reference")
	}
	if s.N() != 200 {
		t.Fatalf("server N = %d after expiry, want 200", s.N())
	}
	vs := postRefresh(t, ts.URL)
	if vs.ViewN != 200 || vs.Window == nil || vs.Window.Expired != 1 {
		t.Fatalf("view status after expiry = %+v (window %+v)", vs, vs.Window)
	}
}

// TestWindowParamValidation pins the window= contract on the read
// endpoints: matching span passes, anything else is a 400 naming the
// mismatch, and a cumulative deployment rejects the parameter outright.
func TestWindowParamValidation(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(p, windowedOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, _ := get(ts.URL + "/marginal?beta=3&window=1h"); code != http.StatusOK {
		t.Fatalf("matching window rejected with %d", code)
	}
	if code, _ := get(ts.URL + "/marginal?beta=3&window=60m"); code != http.StatusOK {
		t.Fatalf("equivalent duration spelling rejected with %d", code)
	}
	if code, body := get(ts.URL + "/marginal?beta=3&window=30m"); code != http.StatusBadRequest || !strings.Contains(body, "1h") {
		t.Fatalf("mismatched window: %d %q, want 400 naming the served span", code, body)
	}
	if code, _ := get(ts.URL + "/marginal?beta=3&window=bogus"); code != http.StatusBadRequest {
		t.Fatalf("malformed window accepted with %d", code)
	}
	// /query honors the same parameter.
	resp, err := http.Post(ts.URL+"/query?window=30m", "application/json", strings.NewReader(`{"q":"a0=1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/query with mismatched window: %d", resp.StatusCode)
	}

	// A cumulative deployment cannot answer any windowed question.
	_, cumTS, _ := newTestServer(t)
	if code, body := get(cumTS.URL + "/marginal?beta=3&window=1h"); code != http.StatusBadRequest || !strings.Contains(body, "cumulative") {
		t.Fatalf("cumulative deployment answered window=: %d %q", code, body)
	}
}

// TestRoundEpsBudgetEnforcement pins the per-round ledger at the HTTP
// layer: reports spend the deployment epsilon against the client token,
// over-budget submissions get 429 (with Retry-After), tokens are
// independent, the token header is mandatory, and a full window slide
// recovers the budget.
func TestRoundEpsBudgetEnforcement(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := windowedOptions()
	opts.RoundEps = 6.1 // three reports at eps=2 per window
	s, err := NewWithOptions(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	reps := windowReports(t, p, 8, 13)
	post := func(token string, rep core.Report) *http.Response {
		t.Helper()
		frame := mustBatch(t, p, rep)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/report/batch", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set(budgetTokenHeader, token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// No token: rejected before any spend.
	if resp := post("", reps[0]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tokenless report: %d, want 400", resp.StatusCode)
	}
	for i := 0; i < 3; i++ {
		if resp := post("alice", reps[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("in-budget report %d: %d", i, resp.StatusCode)
		}
	}
	over := post("alice", reps[3])
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget report: %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	var br BatchResponse
	if err := json.NewDecoder(over.Body).Decode(&br); err != nil || br.Accepted != 0 || !strings.Contains(br.Error, "budget") {
		t.Fatalf("429 body = %+v err %v", br, err)
	}
	// The rejected report must not have been ingested.
	if s.N() != 3 {
		t.Fatalf("server N = %d after budget rejection, want 3", s.N())
	}
	// A different token has its own budget.
	if resp := post("bob", reps[4]); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh token: %d", resp.StatusCode)
	}

	// Status surfaces the ledger.
	var sr StatusResponse
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Window == nil || sr.Window.RoundEps != 6.1 || sr.Window.BudgetTokens != 2 || sr.Window.BudgetRejected != 1 {
		t.Fatalf("status window block = %+v", sr.Window)
	}

	// A full window of rotations slides alice's spend out; the budget
	// recovers exactly when her data has left the release.
	if err := s.advanceWindow(time.Now().Add(opts.Window + opts.Bucket)); err != nil {
		t.Fatal(err)
	}
	if resp := post("alice", reps[5]); resp.StatusCode != http.StatusOK {
		t.Fatalf("report after window slide: %d, want budget recovered", resp.StatusCode)
	}

	// The /report single-frame path enforces the same ledger.
	frameResp := postReport(t, ts.URL, p, reps[6])
	if frameResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tokenless /report on budgeted deployment: %d, want 400", frameResp.StatusCode)
	}
}

// TestWindowedOptionValidation pins the configuration contract.
func TestWindowedOptionValidation(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"window without bucket", Options{Window: time.Hour}, "together"},
		{"bucket without window", Options{Bucket: time.Minute}, "together"},
		{"indivisible", Options{Window: time.Hour, Bucket: 7 * time.Minute}, "multiple"},
		{"round-eps without window", Options{RoundEps: 4}, "Window"},
		{"budget below one report", Options{Window: time.Hour, Bucket: 10 * time.Minute, RoundEps: 0.5}, "below one report"},
		{"coordinator window", Options{Role: RoleCoordinator, Peers: []string{"http://x"}, Window: time.Hour, Bucket: time.Minute}, "edge-side"},
	}
	for _, tc := range cases {
		s, err := NewWithOptions(p, tc.opts)
		if err == nil {
			_ = s.Close()
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCumulativeNodeRefusesWindowedDir: a data dir a windowed node
// wrote holds sealed buckets besides its live one. Reopened without a
// window, construction fails naming -window instead of serving only the
// live bucket, and the refusal leaves the dir whole for the windowed
// node to reopen.
func TestCumulativeNodeRefusesWindowedDir(t *testing.T) {
	p, err := core.New(core.InpPS, core.Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reps := windowReports(t, p, 300, 13)
	opts := windowedOptions()
	opts.Shards, opts.Store = 2, openEdgeStore(t, dir, p)
	s, err := NewWithOptions(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	postBatch(t, ts.URL, p, reps[:200])
	if err := s.advanceWindow(time.Now().Add(opts.Bucket)); err != nil {
		t.Fatal(err)
	}
	postBatch(t, ts.URL, p, reps[200:])
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := openEdgeStore(t, dir, p)
	if _, stats := st.Recovered(); stats.Reports != len(reps) || len(st.RecoveredLayout().Sealed) != 1 {
		t.Fatalf("recovered %d reports in %d sealed buckets, want %d in 1", stats.Reports, len(st.RecoveredLayout().Sealed), len(reps))
	}
	if s, err := NewWithOptions(p, Options{Shards: 2, Store: st}); err == nil {
		_ = s.Close()
		t.Fatal("a cumulative node opened a windowed node's dir")
	} else if !strings.Contains(err.Error(), "-window") {
		t.Fatalf("refusal %q does not name -window", err)
	}

	opts.Store = openEdgeStore(t, dir, p)
	if s, err = NewWithOptions(p, opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.N() != len(reps) {
		t.Fatalf("windowed node reopened with %d reports, want %d", s.N(), len(reps))
	}
}

// TestFromRecoveryClearsOnceWindowSlides: /view/status says
// from_recovery exactly while the serving epoch holds a bucket that held
// recovered reports. A windowed node reopened over 200 recovered reports
// (100 in a sealed bucket, 100 in the live one) keeps saying so while
// either bucket is in the window, and through the epoch built before
// the last of them expired; the first epoch built after says false,
// and so does one holding only new reports. recovered_reports stays the
// count at startup.
func TestFromRecoveryClearsOnceWindowSlides(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reps := windowReports(t, p, 230, 17)
	base := time.Now()
	open := func() (*Server, string) {
		t.Helper()
		opts := windowedOptions() // 1h window of 10m buckets: six slots
		opts.Store = openEdgeStore(t, dir, p)
		s, err := NewWithOptions(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts.URL
	}
	advance := func(s *Server, by time.Duration) {
		t.Helper()
		if err := s.advanceWindow(base.Add(by)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, vs ViewStatusResponse, viewN int, fromRecovery bool) {
		t.Helper()
		if vs.ViewN != viewN || vs.FromRecovery != fromRecovery || vs.RecoveredReports != 200 {
			t.Fatalf("%s: view_n %d, from_recovery %v, recovered_reports %d; want %d, %v, 200",
				what, vs.ViewN, vs.FromRecovery, vs.RecoveredReports, viewN, fromRecovery)
		}
	}

	s, url := open()
	postBatch(t, url, p, reps[:100])
	advance(s, 15*time.Minute) // seals slot 0
	postBatch(t, url, p, reps[100:200])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, url = open()
	defer s.Close()
	check("reopened", getViewStatus(t, url), 200, true)
	advance(s, 25*time.Minute) // seals slot 1, the live bucket restored into
	check("restored live bucket sealed", postRefresh(t, url), 200, true)
	advance(s, 65*time.Minute) // slot 6: slot 0 expires
	check("restored sealed bucket expired", postRefresh(t, url), 100, true)
	advance(s, 3*time.Hour) // slot 1 expires too
	check("epoch built before the expiry", getViewStatus(t, url), 100, true)
	check("epoch built after the expiry", postRefresh(t, url), 0, false)
	postBatch(t, url, p, reps[200:])
	check("new reports only", postRefresh(t, url), 30, false)
}

// TestCloseStopsEveryLoop pins Server.Close in every role: each of the
// node's background loops — window rotation, the degraded-mode probe,
// the view engine's interval refresh and the store's fsync timer on a
// durable windowed single node, the probe and the fsync timer on a
// durable edge, the peer pulls on a coordinator — is joined, and so are
// the pulls' keep-alive connections, which on a shared transport
// outlived Close by its 90 s idle timeout. A second Close returns nil.
func TestCloseStopsEveryLoop(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	edge, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-leak"})
	reps := windowReports(t, p, 50, 17)
	if err := edge.ring.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	const tick = 10 * time.Millisecond
	durable := func(t *testing.T) *store.Store {
		st, err := store.Open(t.TempDir(), p, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cases := []struct {
		name string
		open func(t *testing.T) Options
	}{
		{"durable windowed single", func(t *testing.T) Options {
			return Options{
				Store: durable(t), Window: 4 * tick, Bucket: tick,
				RefreshInterval: tick, degradedProbe: tick,
			}
		}},
		{"durable edge", func(t *testing.T) Options {
			return Options{Role: RoleEdge, Store: durable(t), degradedProbe: tick}
		}},
		{"coordinator with a cluster dir", func(t *testing.T) Options {
			return Options{
				Role: RoleCoordinator, Peers: []string{edgeTS.URL},
				PullInterval: 2 * tick, ClusterDir: t.TempDir(),
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GC()
			baseline := runtime.NumGoroutine()
			s, err := NewWithOptions(p, tc.open(t))
			if err != nil {
				t.Fatal(err)
			}
			// Let every loop tick, the store's fixed 100 ms fsync timer
			// included; a coordinator must have pulled the edge, so a
			// keep-alive connection to it exists.
			time.Sleep(100*time.Millisecond + 5*tick)
			deadline := time.Now().Add(5 * time.Second)
			for s.role == RoleCoordinator && s.N() != len(reps) {
				if time.Now().After(deadline) {
					t.Fatalf("coordinator never pulled the edge (N=%d)", s.N())
				}
				time.Sleep(tick)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			deadline = time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				if n := runtime.NumGoroutine(); n <= baseline {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines alive 5s after Close, want <= %d", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(25 * time.Millisecond)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}
