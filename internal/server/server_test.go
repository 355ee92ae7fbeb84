package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/query"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/view"
)

// New builds a single-role server around a protocol with default
// Options, the construction most tests need. The protocol must be served
// (CheckServed).
func New(p core.Protocol) (*Server, error) {
	return NewWithOptions(p, Options{})
}

func newTestServer(t *testing.T) (*Server, *httptest.Server, core.Protocol) {
	t.Helper()
	return newTestServerWithOptions(t, Options{})
}

func newTestServerWithOptions(t *testing.T, opts Options) (*Server, *httptest.Server, core.Protocol) {
	t.Helper()
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, p
}

// postRefresh publishes a fresh epoch so reads observe everything
// ingested so far — the explicit step the epoch model introduces between
// writing and reading.
func postRefresh(t *testing.T, url string) ViewStatusResponse {
	t.Helper()
	resp, err := http.Post(url+"/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh status %d", resp.StatusCode)
	}
	var vs ViewStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&vs); err != nil {
		t.Fatal(err)
	}
	return vs
}

func postReport(t *testing.T, url string, p core.Protocol, rep core.Report) *http.Response {
	t.Helper()
	frame, err := encoding.Marshal(p.Name(), rep)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/report", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestEndToEndDeployment(t *testing.T) {
	s, ts, p := newTestServer(t)
	ds := dataset.NewTaxi(3000, 1)
	client := p.NewClient()
	r := rng.New(2)
	for _, rec := range ds.Records {
		rep, err := client.Perturb(rec, r)
		if err != nil {
			t.Fatal(err)
		}
		resp := postReport(t, ts.URL, p, rep)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("report rejected with %d", resp.StatusCode)
		}
	}
	if s.N() != ds.N() {
		t.Fatalf("server consumed %d reports, want %d", s.N(), ds.N())
	}
	postRefresh(t, ts.URL)

	beta := uint64(0b11)
	resp, err := http.Get(fmt.Sprintf("%s/marginal?beta=%d", ts.URL, beta))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("marginal query status %d", resp.StatusCode)
	}
	var got MarginalResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.N != ds.N() || got.Beta != beta || len(got.Cells) != 4 || got.Epoch < 2 {
		t.Fatalf("bad response: %+v", got)
	}
	exact, err := marginal.FromRecords(ds.Records, beta)
	if err != nil {
		t.Fatal(err)
	}
	est, err := marginal.FromCells(beta, got.Cells)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := est.TVDistance(exact)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.15 {
		t.Errorf("deployed estimate TV = %v", tv)
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Protocol != "InpHT" || st.D != 8 || st.K != 2 || st.ReportBits != 9 {
		t.Errorf("status = %+v", st)
	}
}

func TestRejectsWrongProtocolReport(t *testing.T) {
	_, ts, _ := newTestServer(t)
	frame, err := encoding.Marshal("MargPS", core.Report{Beta: 0b11, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/report", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong-protocol report got %d, want 400", resp.StatusCode)
	}
}

func TestRejectsMalformedFrame(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/report", "application/octet-stream", bytes.NewReader([]byte{0xff, 0x01}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed frame got %d, want 400", resp.StatusCode)
	}
}

func TestRejectsInvalidReportContent(t *testing.T) {
	_, ts, p := newTestServer(t)
	// Coefficient outside T (|alpha| > k).
	resp := postReport(t, ts.URL, p, core.Report{Index: 0b1111, Sign: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid report got %d, want 400", resp.StatusCode)
	}
}

func TestMethodEnforcement(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /report got %d, want 405", resp.StatusCode)
	}
	resp2, err := http.Post(ts.URL+"/marginal?beta=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /marginal got %d, want 405", resp2.StatusCode)
	}
}

// TestMarginalQueryValidation pins the HTTP status mapping of /marginal:
// out-of-contract betas are 400s whose message names the violated limit
// (so an analyst learns the deployment's k or d without reading docs),
// and in-contract betas are 200s — even before any report arrives.
func TestMarginalQueryValidation(t *testing.T) {
	_, ts, p := newTestServer(t)
	// Feed one report so the refreshed view has data.
	client := p.NewClient()
	rep, err := client.Perturb(5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	postReport(t, ts.URL, p, rep)
	postRefresh(t, ts.URL)
	cases := []struct {
		path    string
		status  int
		wantMsg string
	}{
		{"/marginal", http.StatusBadRequest, "decimal attribute mask"},          // missing beta
		{"/marginal?beta=abc", http.StatusBadRequest, "decimal attribute mask"}, // non-numeric
		{"/marginal?beta=0", http.StatusBadRequest, "empty attribute mask"},
		{"/marginal?beta=7", http.StatusBadRequest, "supports at most k=2"}, // |beta| > k
		{"/marginal?beta=1024", http.StatusBadRequest, "outside the deployment's 8 attributes"},
		{"/marginal?beta=3", http.StatusOK, ""},
		{"/marginal?beta=129", http.StatusOK, ""}, // non-adjacent pair
		{"/marginal?beta=4", http.StatusOK, ""},   // 1-way sub-marginal
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s got %d (%q), want %d", tc.path, resp.StatusCode, body, tc.status)
		}
		if tc.wantMsg != "" && !strings.Contains(string(body), tc.wantMsg) {
			t.Errorf("%s error %q does not name the limit %q", tc.path, body, tc.wantMsg)
		}
	}
}

func TestConcurrentReporters(t *testing.T) {
	s, ts, p := newTestServer(t)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := p.NewClient()
			r := rng.New(uint64(w) + 10)
			for i := 0; i < perWorker; i++ {
				rep, err := client.Perturb(uint64(i%256), r)
				if err != nil {
					errs <- err
					return
				}
				frame, err := encoding.Marshal(p.Name(), rep)
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/report", "application/octet-stream", bytes.NewReader(frame))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.N() != workers*perWorker {
		t.Errorf("consumed %d reports, want %d", s.N(), workers*perWorker)
	}
}

// TestBatchEndpoint posts one batch and checks the accepted count and
// that the resulting estimate is byte-identical to a sequential
// aggregator fed the same reports.
func TestBatchEndpoint(t *testing.T) {
	s, ts, p := newTestServer(t)
	client := p.NewClient()
	r := rng.New(7)
	seq := p.NewAggregator()
	var reps []core.Report
	for i := 0; i < 500; i++ {
		rep, err := client.Perturb(uint64(i%256), r)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		if err := seq.Consume(rep); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/report/batch", "application/octet-stream", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch post status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != len(reps) || s.N() != len(reps) {
		t.Fatalf("accepted %d, server N %d, want %d", br.Accepted, s.N(), len(reps))
	}
	postRefresh(t, ts.URL)
	assertMarginalMatches(t, ts.URL, p, seq, 0b11)
}

// assertMarginalMatches fetches /marginal?beta and requires the cells to
// be bit-identical to a view built from want by the same pipeline the
// server runs — integer-counter aggregation makes shard partitioning
// invisible in the snapshot, and the view build is deterministic on top
// of it.
func assertMarginalMatches(t *testing.T, url string, p core.Protocol, want core.Aggregator, beta uint64) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/marginal?beta=%d", url, beta))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("marginal query status %d", resp.StatusCode)
	}
	var got MarginalResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	refView, err := view.Build(want, p, view.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refView.Marginal(beta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(ref.Cells) {
		t.Fatalf("got %d cells, want %d", len(got.Cells), len(ref.Cells))
	}
	for c := range ref.Cells {
		if math.Float64bits(got.Cells[c]) != math.Float64bits(ref.Cells[c]) {
			t.Fatalf("cell %d: got %v, want %v", c, got.Cells[c], ref.Cells[c])
		}
	}
}

// TestBatchRejectsMalformedAndMixed covers the batch-specific error
// paths: truncated framing, mixed protocol tags, and wrong-protocol
// batches.
func TestBatchRejectsMalformedAndMixed(t *testing.T) {
	_, ts, p := newTestServer(t)
	good, err := encoding.Marshal(p.Name(), core.Report{Index: 0b1, Sign: 1})
	if err != nil {
		t.Fatal(err)
	}
	other, err := encoding.Marshal("MargPS", core.Report{Beta: 0b11, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      {0x09, 0x01},
		"mixed tags":     append(encoding.AppendFrame(nil, good), encoding.AppendFrame(nil, other)...),
		"wrong protocol": encoding.AppendFrame(nil, other),
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/report/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s batch got %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestBatchRejectionReportsBatchIndex posts a batch whose only invalid
// report sits at a known position and checks the error names that
// batch-global position, not a chunk-relative one.
func TestBatchRejectionReportsBatchIndex(t *testing.T) {
	s, ts, p := newTestServer(t)
	client := p.NewClient()
	r := rng.New(31)
	var reps []core.Report
	for i := 0; i < 5; i++ {
		rep, err := client.Perturb(uint64(i), r)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	reps[3] = core.Report{Index: 0b11111111, Sign: 1} // |alpha| > k: invalid
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/report/batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if err := json.Unmarshal(msg, &br); err != nil {
		t.Fatalf("rejection body %q is not a BatchResponse: %v", msg, err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(br.Error, "batch report 3") {
		t.Fatalf("status %d, message %q; want 400 naming batch report 3", resp.StatusCode, msg)
	}
	if br.Accepted != 3 || s.N() != 3 {
		t.Fatalf("accepted=%d N=%d after partial batch, want 3 (reports before the rejection)", br.Accepted, s.N())
	}
}

// TestBatchRejectionReportsLowestIndex posts a batch with invalid
// reports in two different 1024-report chunks; whichever chunk fails
// first in wall-clock time, the reply must name the lowest-index
// rejection.
func TestBatchRejectionReportsLowestIndex(t *testing.T) {
	_, ts, p := newTestServer(t)
	client := p.NewClient()
	r := rng.New(37)
	reps := make([]core.Report, 3000)
	for i := range reps {
		rep, err := client.Perturb(uint64(i%256), r)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	bad := core.Report{Index: 0b11111111, Sign: 1}
	reps[10], reps[2000] = bad, bad // chunks 0 and 1
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/report/batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(br.Error, "batch report 10") {
		t.Fatalf("status %d, error %q; want 400 naming batch report 10", resp.StatusCode, br.Error)
	}
}

// TestStressInterleavedReportAndBatch hammers the deployment with 32
// goroutines mixing single /report posts and /report/batch posts, then
// asserts the final count and that the marginal is byte-identical to a
// sequential aggregator fed exactly the same reports. Run under
// `go test -race` this is the race certification of the sharded
// ingestion path.
func TestStressInterleavedReportAndBatch(t *testing.T) {
	s, ts, p := newTestServer(t)
	const (
		workers      = 32
		batchesPer   = 6
		batchSize    = 40
		singlesPer   = 25
		perWorker    = batchesPer*batchSize + singlesPer
		totalReports = workers * perWorker
	)
	// Pre-generate every worker's reports deterministically so a
	// sequential reference aggregator can consume the identical multiset.
	reports := make([][]core.Report, workers)
	for w := range reports {
		client := p.NewClient()
		r := rng.New(uint64(w) + 1000)
		for i := 0; i < perWorker; i++ {
			rep, err := client.Perturb(uint64((w*perWorker+i)%256), r)
			if err != nil {
				t.Fatal(err)
			}
			reports[w] = append(reports[w], rep)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reps := reports[w]
			// Interleave: one batch, then a few singles, repeatedly.
			singles := reps[batchesPer*batchSize:]
			for b := 0; b < batchesPer; b++ {
				batch := reps[b*batchSize : (b+1)*batchSize]
				body, err := encoding.MarshalBatch(p.Name(), batch)
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/report/batch", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var br BatchResponse
				decErr := json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("batch status %d", resp.StatusCode)
					return
				}
				if decErr != nil {
					errs <- decErr
					return
				}
				// The per-request accepted count must reflect this
				// batch only, even with 31 other writers in flight.
				if br.Accepted != batchSize {
					errs <- fmt.Errorf("batch accepted %d, want %d", br.Accepted, batchSize)
					return
				}
				for i := 0; i < singlesPer/batchesPer && b*(singlesPer/batchesPer)+i < len(singles); i++ {
					rep := singles[b*(singlesPer/batchesPer)+i]
					frame, err := encoding.Marshal(p.Name(), rep)
					if err != nil {
						errs <- err
						return
					}
					resp, err := http.Post(ts.URL+"/report", "application/octet-stream", bytes.NewReader(frame))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent {
						errs <- fmt.Errorf("report status %d", resp.StatusCode)
						return
					}
				}
			}
			// Whatever singles the interleaving loop above didn't reach.
			sent := batchesPer * (singlesPer / batchesPer)
			for _, rep := range singles[sent:] {
				frame, err := encoding.Marshal(p.Name(), rep)
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/report", "application/octet-stream", bytes.NewReader(frame))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					errs <- fmt.Errorf("report status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.N() != totalReports {
		t.Fatalf("server consumed %d reports, want %d", s.N(), totalReports)
	}

	// The sequential reference over the same multiset must agree exactly.
	seq := p.NewAggregator()
	for _, reps := range reports {
		if err := seq.ConsumeBatch(reps); err != nil {
			t.Fatal(err)
		}
	}
	postRefresh(t, ts.URL)
	assertMarginalMatches(t, ts.URL, p, seq, 0b11)
	assertMarginalMatches(t, ts.URL, p, seq, 0b1100)

	// /status must agree with the lock-free counter.
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.N != totalReports || st.Shards < 1 {
		t.Errorf("status N=%d shards=%d, want N=%d", st.N, st.Shards, totalReports)
	}
}

// TestQueryEndpoint posts reports, refreshes, and evaluates a batch of
// conjunctions — including malformed and out-of-domain ones, which must
// fail per-query without failing the batch — and checks the answers
// against the view built from an identical sequential aggregator.
func TestQueryEndpoint(t *testing.T) {
	s, ts, p := newTestServer(t)
	client := p.NewClient()
	r := rng.New(11)
	seq := p.NewAggregator()
	var reps []core.Report
	for i := 0; i < 2000; i++ {
		rep, err := client.Perturb(uint64(i%256), r)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		if err := seq.Consume(rep); err != nil {
			t.Fatal(err)
		}
	}
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/report/batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if s.N() != len(reps) {
		t.Fatalf("ingested %d, want %d", s.N(), len(reps))
	}
	postRefresh(t, ts.URL)

	queries := []string{
		"a0=1 AND a7=0",          // valid conjunction
		"a3=1",                   // single-term
		"a0=1 AND a1=1 AND a2=0", // 3 terms > k=2: per-query error
		"a0=banana",              // parse error
		"a99=1",                  // attribute out of domain
	}
	qBody, err := json.Marshal(QueryRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	qResp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(qBody))
	if err != nil {
		t.Fatal(err)
	}
	defer qResp.Body.Close()
	if qResp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", qResp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(qResp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.N != len(reps) || len(qr.Results) != len(queries) {
		t.Fatalf("response n=%d results=%d, want n=%d results=%d", qr.N, len(qr.Results), len(reps), len(queries))
	}
	for i, res := range qr.Results[:2] {
		if res.Error != "" {
			t.Fatalf("valid query %d failed: %s", i, res.Error)
		}
		if math.Float64bits(res.Count) != math.Float64bits(res.Fraction*float64(len(reps))) {
			t.Errorf("query %d count %v does not match fraction %v * n", i, res.Count, res.Fraction)
		}
	}
	for i, res := range qr.Results[2:] {
		if res.Error == "" {
			t.Errorf("invalid query %d accepted: %+v", i+2, res)
		}
	}

	// Answers must be bit-identical to the reference view of the same
	// reports evaluated directly.
	refView, err := view.Build(seq, p, view.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries[:2] {
		c, err := query.Parse(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refView.Answer(c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(qr.Results[i].Fraction) != math.Float64bits(want) {
			t.Errorf("query %q: got %v, want %v", q, qr.Results[i].Fraction, want)
		}
	}

	// Single-query shorthand.
	sResp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"q":"a0=1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer sResp.Body.Close()
	var sr QueryResponse
	if err := json.NewDecoder(sResp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 1 || sr.Results[0].Error != "" {
		t.Fatalf("single query: %+v", sr)
	}

	// Empty and malformed bodies are request-level 400s.
	for _, body := range []string{`{}`, `{"queries":[]}`, `not json`} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q got %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestViewStatusAndHealthz covers the observability endpoints: epoch
// advancement, staleness accounting, and the liveness probe.
func TestViewStatusAndHealthz(t *testing.T) {
	_, ts, p := newTestServer(t)

	getStatus := func() ViewStatusResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/view/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var vs ViewStatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&vs); err != nil {
			t.Fatal(err)
		}
		return vs
	}

	vs := getStatus()
	if vs.Epoch != 1 || vs.ViewN != 0 || vs.StalenessReports != 0 {
		t.Fatalf("initial view status %+v, want epoch 1 over 0 reports", vs)
	}

	// Ingest without refreshing: staleness grows, epoch stands still.
	client := p.NewClient()
	r := rng.New(3)
	for i := 0; i < 10; i++ {
		rep, err := client.Perturb(uint64(i), r)
		if err != nil {
			t.Fatal(err)
		}
		postReport(t, ts.URL, p, rep)
	}
	vs = getStatus()
	if vs.Epoch != 1 || vs.ViewN != 0 || vs.CurrentN != 10 || vs.StalenessReports != 10 {
		t.Fatalf("pre-refresh view status %+v, want epoch 1, staleness 10", vs)
	}

	// Refresh: the new epoch absorbs the backlog.
	rs := postRefresh(t, ts.URL)
	if rs.Epoch != 2 || rs.ViewN != 10 || rs.StalenessReports != 0 {
		t.Fatalf("post-refresh status %+v, want epoch 2 over 10 reports", rs)
	}
	if vs := getStatus(); vs.Epoch != 2 || vs.Tables != 36 { // C(8,2) + C(8,1)
		t.Fatalf("view status %+v, want epoch 2 with 36 tables", vs)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != 2 {
		t.Fatalf("healthz %+v", h)
	}
}

// TestStressViewRefreshConcurrentQuery is the race certification of the
// materialized-view read path: concurrent batch ingestion, explicit and
// interval-driven epoch refreshes, and 32 query readers hammering
// /marginal, /query, and /view/status simultaneously. Afterwards one
// final refresh must serve answers bit-identical to a sequential
// reference fed the same multiset.
func TestStressViewRefreshConcurrentQuery(t *testing.T) {
	s, ts, p := newTestServerWithOptions(t, Options{
		RefreshInterval: 5 * time.Millisecond,
	})
	const (
		ingesters  = 8
		batchesPer = 8
		batchSize  = 100
		refreshers = 4
		readers    = 32
	)
	reports := make([][]core.Report, ingesters)
	for w := range reports {
		client := p.NewClient()
		r := rng.New(uint64(w) + 5000)
		for i := 0; i < batchesPer*batchSize; i++ {
			rep, err := client.Perturb(uint64(i%256), r)
			if err != nil {
				t.Fatal(err)
			}
			reports[w] = append(reports[w], rep)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, ingesters+refreshers+readers)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for w := 0; w < ingesters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				body, err := encoding.MarshalBatch(p.Name(), reports[w][b*batchSize:(b+1)*batchSize])
				if err != nil {
					fail(err)
					return
				}
				resp, err := http.Post(ts.URL+"/report/batch", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					fail(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("batch status %d", resp.StatusCode))
					return
				}
			}
		}(w)
	}
	for w := 0; w < refreshers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Post(ts.URL+"/refresh", "", nil)
				if err != nil {
					fail(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("refresh status %d", resp.StatusCode))
					return
				}
			}
		}()
	}
	readerDone := make(chan struct{})
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp *http.Response
				var err error
				switch w % 3 {
				case 0:
					resp, err = http.Get(ts.URL + "/marginal?beta=3")
				case 1:
					resp, err = http.Post(ts.URL+"/query", "application/json",
						strings.NewReader(`{"queries":["a0=1 AND a1=0","a5=1"]}`))
				default:
					resp, err = http.Get(ts.URL + "/view/status")
				}
				if err != nil {
					fail(err)
					return
				}
				var got struct {
					Epoch int64 `json:"epoch"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("reader %d status %d", w, resp.StatusCode))
					return
				}
				if decErr != nil {
					fail(decErr)
					return
				}
				if got.Epoch < 1 {
					fail(fmt.Errorf("reader %d observed unpublished epoch %d", w, got.Epoch))
					return
				}
			}
		}(w)
	}
	go func() { defer close(readerDone); wg.Wait() }()

	// Let writers and refreshers finish, then release the readers.
	deadline := time.After(60 * time.Second)
	total := ingesters * batchesPer * batchSize
	for s.N() < total {
		select {
		case <-deadline:
			close(stop)
			t.Fatalf("ingestion stalled at %d/%d", s.N(), total)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-readerDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	seq := p.NewAggregator()
	for _, reps := range reports {
		if err := seq.ConsumeBatch(reps); err != nil {
			t.Fatal(err)
		}
	}
	vs := postRefresh(t, ts.URL)
	if vs.ViewN != total {
		t.Fatalf("final epoch over %d reports, want %d", vs.ViewN, total)
	}
	assertMarginalMatches(t, ts.URL, p, seq, 0b11)
	assertMarginalMatches(t, ts.URL, p, seq, 0b10000001)
}

func TestNewRejectsUnknownProtocol(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(fakeProtocol{p}); err == nil {
		t.Error("protocol without a wire tag should be rejected")
	}
}

// fakeProtocol is a protocol that folds under a name with no wire tag.
type fakeProtocol struct{ core.Protocol }

func (fakeProtocol) Name() string { return "Mystery" }
