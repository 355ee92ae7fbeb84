package server

import (
	"bytes"
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
	"ldpmarginals/internal/wire"
)

// windowedOptions is the standard windowed deployment tests rotate by
// hand: buckets are long enough that the background rotator never fires
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
// the continual-release tier at the HTTP layer: for each of the six
// protocols, a windowed deployment whose window still covers every
// bucket — including across hand-driven bucket rotations — must export
// /state bytes identical to a single cumulative aggregator fed the same
// stream, and serve the same /marginal cells.
func TestWindowedServerBitIdentityAllProtocols(t *testing.T) {
	for _, kind := range core.AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			p, err := core.New(kind, core.Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true})
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
			if st := s.win.Status(); st.SealedBuckets != 3 || st.Expired != 0 {
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
	if st := s.win.Status(); st.Expired != 1 {
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

// TestCoordinatorCloseReleasesPullGoroutines is the satellite-1
// regression pin: Server.Close on a coordinator must tear down the
// puller's keep-alive connections, not leave their transport read/write
// loops running until an idle timeout. Before the dedicated-transport
// fix those goroutines parked on http.DefaultTransport and survived
// Close by 90 seconds.
func TestCoordinatorCloseReleasesPullGoroutines(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	edge, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-leak"})
	reps := windowReports(t, p, 50, 17)
	if err := edge.agg.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	baseline := runtime.NumGoroutine()

	coord, err := NewWithOptions(p, Options{
		Role:         RoleCoordinator,
		NodeID:       "coord-leak",
		Peers:        []string{edgeTS.URL},
		PullInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until a pull actually transferred state, so a keep-alive
	// connection to the edge exists.
	deadline := time.Now().Add(5 * time.Second)
	for coord.N() != len(reps) {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never pulled the edge (N=%d)", coord.N())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything the coordinator started — puller loop, engine refresher,
	// and the transport's connection goroutines — must wind down promptly.
	deadline = time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive 5s after Close, want <= %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestPullAgeNeverNegative is the satellite-2 regression pin: a
// pulledAt stamp stripped of its monotonic reading (Round(0)) and
// sitting in the wall-clock future — the shape a stepped-back clock
// produces — must clamp the reported age at zero, not go negative and
// masquerade as the "never pulled" sentinel.
func TestPullAgeNeverNegative(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "edge-age"})
	coord, _ := newClusterNode(t, p, Options{
		Role:         RoleCoordinator,
		NodeID:       "coord-age",
		Peers:        []string{edgeTS.URL},
		PullInterval: time.Hour, // no background pulls; we stamp by hand
	})
	coord.fleet.mu.Lock()
	coord.fleet.peers[0].pulledAt = time.Now().Add(time.Hour).Round(0)
	coord.fleet.mu.Unlock()
	peers, _ := coord.fleet.status()
	if len(peers) != 1 {
		t.Fatalf("%d peers", len(peers))
	}
	if got := peers[0].LastPullAgeSeconds; got != 0 {
		t.Fatalf("future pull stamp reported age %v, want clamp at 0", got)
	}
	// The -1 "never pulled" sentinel is preserved.
	coord.fleet.mu.Lock()
	coord.fleet.peers[0].pulledAt = time.Time{}
	coord.fleet.mu.Unlock()
	peers, _ = coord.fleet.status()
	if got := peers[0].LastPullAgeSeconds; got != -1 {
		t.Fatalf("zero pull stamp reported age %v, want -1 sentinel", got)
	}
}
