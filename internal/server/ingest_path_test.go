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
	"unsafe"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/store"
)

// tryPostBatch posts body to url's /report/batch and returns the status
// and the decoded reply.
func tryPostBatch(url string, body []byte) (int, BatchResponse, error) {
	resp, err := http.Post(url+"/report/batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, BatchResponse{}, err
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return resp.StatusCode, br, fmt.Errorf("status %d: reply is not a BatchResponse: %w", resp.StatusCode, err)
	}
	return resp.StatusCode, br, nil
}

// postBatchBody is tryPostBatch for the test's own goroutine.
func postBatchBody(t *testing.T, url string, body []byte) (int, BatchResponse) {
	t.Helper()
	status, br, err := tryPostBatch(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, br
}

// TestBatchInvalidReportAcceptsExactPrefix is the end-to-end form of the
// ingest path's accept-set contract: a report the wire codec decodes but
// the protocol does not allow — an index past 2^d, a beta that is not a
// collected marginal or has the wrong number of attributes, a bitmap of
// the wrong length, a sketch row or coefficient past the sketch — stops
// the batch exactly there. The reply is a 400 with accepted == j, and the
// node's state is byte-for-byte that of a twin aggregator fed the first j
// reports and nothing else.
func TestBatchInvalidReportAcceptsExactPrefix(t *testing.T) {
	const n = 16
	d, k := clusterCfg.D, clusterCfg.K
	kway := uint64(1)<<uint(k) - 1
	invalid := map[string]map[string]core.Report{
		"InpPS":    {"index = 2^d": {Index: 1 << uint(d)}, "index needs a 4-byte varint": {Index: 1 << 21}},
		"InpHT":    {"coefficient of k+1 attributes": {Index: kway<<1 | 1, Sign: 1}, "coefficient 0": {Index: 0, Sign: -1}, "coefficient past 2^d": {Index: 1 << uint(d), Sign: 1}},
		"MargRR":   {"beta of k+1 attributes": {Beta: kway<<1 | 1, Bits: []uint64{0}}, "short bitmap": {Beta: kway, Bits: []uint64{}}, "long bitmap": {Beta: kway, Bits: []uint64{0, 0}}},
		"MargPS":   {"beta of k+1 attributes": {Beta: kway<<1 | 1, Index: 1}, "beta of k-1 attributes": {Beta: 1, Index: 1}, "beta past 2^d": {Beta: 3 << uint(d), Index: 1}, "cell = 2^k": {Beta: kway, Index: 1 << uint(k)}},
		"MargHT":   {"beta of k+1 attributes": {Beta: kway<<1 | 1, Index: 1, Sign: 1}, "beta past 2^d": {Beta: 3 << uint(d), Index: 1, Sign: 1}, "constant coefficient": {Beta: kway, Index: 0, Sign: 1}, "coefficient = 2^k": {Beta: kway, Index: 1 << uint(k), Sign: -1}},
		"InpHTCMS": {"row = g": {Beta: 5, Index: 1, Sign: 1}, "coefficient = w": {Beta: 0, Index: 256, Sign: -1}},
	}
	for _, p := range servedProtocols(t, clusterCfg) {
		good := makeClusterReports(t, p, n, 5)
		for what, bad := range invalid[p.Name()] {
			for _, j := range []int{0, n / 2, n - 1} {
				t.Run(fmt.Sprintf("%s/%s/at %d", p.Name(), what, j), func(t *testing.T) {
					s, ts := newClusterNode(t, p, Options{})
					reps := append([]core.Report(nil), good...)
					reps[j] = bad
					body, err := encoding.MarshalBatch(p.Name(), reps)
					if err != nil {
						t.Fatal(err)
					}
					status, br := postBatchBody(t, ts.URL, body)
					if status != http.StatusBadRequest || br.Accepted != j || !strings.Contains(br.Error, fmt.Sprintf("batch report %d:", j)) {
						t.Fatalf("status %d accepted %d error %q; want 400, %d accepted, naming batch report %d", status, br.Accepted, br.Error, j, j)
					}
					if s.N() != j {
						t.Fatalf("node holds %d reports, want %d", s.N(), j)
					}
					if got, _ := stateBytes(t, ts.URL); !bytes.Equal(got, referenceBytes(t, p, good[:j])) {
						t.Fatalf("node state differs from a twin fed exactly the first %d reports", j)
					}
				})
			}
		}
	}
}

// TestLargestServedFrameFitsBound: every served protocol's largest frame
// fits encoding.MaxFrameBytes, and a frame one byte past the bound is
// refused on both ingest endpoints. A frame grows with its field values,
// so a protocol's largest is its report with every field at its bound at
// its largest legal shape: d = 40 (bitops.MaxAttributes) where allowed,
// InpPS at d = 20 (core.MaxInputAttributes), MargRR at k = 16, and the
// sketch's row and coefficient at any width.
func TestLargestServedFrameFitsBound(t *testing.T) {
	top := func(bits int) uint64 { return 1<<uint(bits) - 1 }
	largest := map[string]core.Report{
		"InpPS":    {Index: top(core.MaxInputAttributes)},
		"InpHT":    {Index: top(bitops.MaxAttributes), Sign: -1},
		"MargRR":   {Beta: top(bitops.MaxAttributes), Bits: make([]uint64, 1<<16/64)},
		"MargPS":   {Beta: top(bitops.MaxAttributes), Index: top(bitops.MaxAttributes)},
		"MargHT":   {Beta: top(bitops.MaxAttributes), Index: top(bitops.MaxAttributes), Sign: -1},
		"InpHTCMS": {Beta: math.MaxUint64, Index: math.MaxUint64, Sign: -1},
	}
	for _, p := range servedProtocols(t, clusterCfg) {
		rep, ok := largest[p.Name()]
		if !ok {
			t.Fatalf("%s: served, but its largest frame is not listed", p.Name())
		}
		frame, err := encoding.Marshal(p.Name(), rep)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) > encoding.MaxFrameBytes {
			t.Errorf("%s: largest frame is %d bytes, over the %d-byte bound", p.Name(), len(frame), encoding.MaxFrameBytes)
		}
	}
	// The shapes above are the largest legal ones.
	if _, err := core.New(core.MargRR, core.Config{D: 17, K: 17, Epsilon: 1}); err == nil {
		t.Error("MargRR accepted k = 17")
	}
	if _, err := core.New(core.InpPS, core.Config{D: core.MaxInputAttributes + 1, K: 1, Epsilon: 1}); err == nil {
		t.Errorf("InpPS accepted d = %d", core.MaxInputAttributes+1)
	}

	p, err := core.New(core.MargRR, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newClusterNode(t, p, Options{})
	over := make([]byte, encoding.MaxFrameBytes+1)
	over[0] = byte(encoding.TagMargRR)
	if status, br := postBatchBody(t, ts.URL, encoding.AppendFrame(nil, over)); status != http.StatusBadRequest || br.Accepted != 0 {
		t.Errorf("/report/batch with a %d-byte frame: status %d accepted %d, want 400 and none", len(over), status, br.Accepted)
	}
	resp, err := http.Post(ts.URL+"/report", "application/octet-stream", bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("/report with a %d-byte frame: status %d, want 413", len(over), resp.StatusCode)
	}
}

// TestMultiChunkRejectionAcceptsExactPrefix pins the accept set of a
// batch of several chunks: its chunks are ingested in order and the
// first rejection stops the batch, so a 3,000-report batch with an
// invalid report at index 10 accepts exactly the 10 reports before it,
// on a node whose shards could have taken every chunk at once.
func TestMultiChunkRejectionAcceptsExactPrefix(t *testing.T) {
	s, ts, p := newTestServerWithOptions(t, Options{Shards: 4})
	reps := make([]core.Report, 3000)
	client, r := p.NewClient(), rng.New(41)
	for i := range reps {
		rep, err := client.Perturb(uint64(i%256), r)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	reps[10] = core.Report{Index: 0b11111111, Sign: 1} // a coefficient of more than k attributes
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		t.Fatal(err)
	}
	status, br := postBatchBody(t, ts.URL, body)
	if status != http.StatusBadRequest || br.Accepted != 10 || !strings.Contains(br.Error, "batch report 10:") {
		t.Fatalf("status %d accepted %d error %q; want 400, 10 accepted, naming batch report 10", status, br.Accepted, br.Error)
	}
	if s.N() != 10 {
		t.Fatalf("node holds %d reports, want the 10 before the rejected one", s.N())
	}
}

// TestIngestRunsUnderOneAdmissionSlot pins the one gate of both ingest
// endpoints, with one admission slot (Shards: 1): a request
// waits while the slot is held and ingests nothing; two concurrent
// requests share the slot and both complete, and a third after them is
// not starved; a rejection names the lowest-index invalid report; and
// no slot is held once every request has returned.
func TestIngestRunsUnderOneAdmissionSlot(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeClusterReports(t, p, batchChunk, 9)
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encoding.Marshal(p.Name(), reps[0])
	if err != nil {
		t.Fatal(err)
	}
	// Two invalid reports in one batch: the lower index is the one named.
	bad := append([]core.Report(nil), reps[:16]...)
	bad[3], bad[9] = core.Report{Index: 0, Sign: 1}, core.Report{Index: 0, Sign: 1}
	badBody, err := encoding.MarshalBatch(p.Name(), bad)
	if err != nil {
		t.Fatal(err)
	}
	badFrame, err := encoding.Marshal(p.Name(), bad[3])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path    string
		body, badBody []byte
		reports, ok   int
		rejection     string
	}{
		{"batch", "/report/batch", body, badBody, len(reps), http.StatusOK, `"accepted":3,"error":"rejected: batch report 3:`},
		{"report", "/report", frame, badFrame, 1, http.StatusNoContent, `"error":"rejected: `},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newClusterNode(t, p, Options{Shards: 1})
			post := func(body []byte) (int, string, error) {
				resp, err := http.Post(ts.URL+tc.path, "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					return 0, "", err
				}
				defer resp.Body.Close()
				reply, err := io.ReadAll(resp.Body)
				return resp.StatusCode, string(reply), err
			}

			// With the only slot taken, a request must wait for it.
			s.adm.slots <- struct{}{}
			done := make(chan int, 1)
			go func() {
				status, _, err := post(tc.body)
				if err != nil {
					t.Error(err)
				}
				done <- status
			}()
			select {
			case status := <-done:
				t.Fatalf("request finished (status %d) while the only admission slot was taken", status)
			case <-time.After(100 * time.Millisecond):
			}
			if s.N() != 0 {
				t.Fatalf("%d reports ingested without a slot", s.N())
			}
			<-s.adm.slots
			if status := <-done; status != tc.ok {
				t.Fatalf("status %d after the slot was freed, want %d", status, tc.ok)
			}

			// Two concurrent requests share the single slot and both
			// complete; a third after them is not starved.
			var wg sync.WaitGroup
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if status, reply, err := post(tc.body); err != nil || status != tc.ok {
						t.Errorf("concurrent request: status %d reply %q error %v", status, reply, err)
					}
				}()
			}
			wg.Wait()
			if status, reply, err := post(tc.body); err != nil || status != tc.ok {
				t.Fatalf("third request: status %d reply %q error %v", status, reply, err)
			}
			if s.N() != 4*tc.reports {
				t.Fatalf("node holds %d reports, want %d", s.N(), 4*tc.reports)
			}

			if status, reply, err := post(tc.badBody); err != nil || status != http.StatusBadRequest || !strings.Contains(reply, tc.rejection) {
				t.Fatalf("status %d reply %q error %v; want 400 with %s", status, reply, err, tc.rejection)
			}
			if held := len(s.adm.slots); held != 0 {
				t.Fatalf("%d admission slots still held after every request returned", held)
			}
		})
	}
}

// recordingBody is a request body that remembers where the handler read
// it to: the start of every distinct buffer a Read was handed, and the
// buffers themselves, so the allocator cannot hand the same address out
// twice while the test runs.
type recordingBody struct {
	r     io.Reader
	reads int
	bufs  map[*byte][]byte
}

func (b *recordingBody) Read(p []byte) (int, error) {
	b.reads++
	if b.bufs == nil {
		b.bufs = map[*byte][]byte{}
	}
	// The handler reads into buf[len:cap]; the last byte of capacity is
	// the same for every window onto one backing array.
	whole := p[:cap(p)]
	b.bufs[unsafe.SliceData(whole[len(whole)-1:])] = whole
	return b.r.Read(p)
}

func (b *recordingBody) Close() error { return nil }

// serveBatch runs one /report/batch request through the handler in
// process, with the given declared Content-Length (-1: undeclared, as
// under chunked transfer encoding).
func serveBatch(s *Server, body []byte, contentLength int64) (*httptest.ResponseRecorder, *recordingBody) {
	rb := &recordingBody{r: bytes.NewReader(body)}
	req := httptest.NewRequest(http.MethodPost, "/report/batch", rb)
	req.ContentLength = contentLength
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec, rb
}

// TestDurableBatchBodyBuffer covers the body buffer of a durable node,
// which starts every request without one because the previous request's
// went to the WAL: a declared Content-Length sizes it in one allocation;
// an undeclared length still works through the growth loop; an
// over-limit body is refused with 413 whether or not its length was
// declared; and the buffer a durable one-chunk batch was read into is
// never handed to a later request, as it would be had it gone back to
// the pool.
func TestDurableBatchBodyBuffer(t *testing.T) {
	p, err := core.New(core.MargPS, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), p, store.Options{Fsync: store.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	body, err := encoding.MarshalBatch(p.Name(), makeClusterReports(t, p, 16, 4))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newClusterNode(t, p, Options{Store: st})
	s.ingest.maxBatch = int64(len(body))

	seen := map[*byte]bool{} // holding the addresses keeps the buffers from being collected and reallocated
	for i := range 8 {
		rec, rb := serveBatch(s, body, int64(len(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if len(rb.bufs) != 1 || rb.reads > 2 {
			t.Fatalf("request %d: a %d-byte body with a declared length was read into %d buffers by %d reads, want 1 buffer and at most 2 reads", i, len(body), len(rb.bufs), rb.reads)
		}
		for at := range rb.bufs {
			if seen[at] {
				t.Fatalf("request %d was read into a buffer an earlier durable request handed to the WAL", i)
			}
			seen[at] = true
		}
	}

	rec, rb := serveBatch(s, body, -1)
	if rec.Code != http.StatusOK {
		t.Fatalf("undeclared length: status %d: %s", rec.Code, rec.Body)
	}
	if len(rb.bufs) < 2 {
		t.Fatalf("undeclared length: %d-byte body read into %d buffer(s); expected the growth loop", len(body), len(rb.bufs))
	}
	if s.N() != 9*16 {
		t.Fatalf("node holds %d reports, want %d", s.N(), 9*16)
	}

	over := append(append([]byte(nil), body...), body...)
	for _, declared := range []int64{int64(len(over)), -1} {
		if rec, _ := serveBatch(s, over, declared); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("over-limit body, declared length %d: status %d, want 413", declared, rec.Code)
		}
	}
	if s.N() != 9*16 {
		t.Fatalf("an over-limit body was ingested: node holds %d reports", s.N())
	}
}

// TestBatchBufPoolDropsOversizedBuffers serves one batch larger than the
// pool keeps — on this goroutine, so its workspace would be the first
// thing the pool hands back — and checks the pool never hands it out.
func TestBatchBufPoolDropsOversizedBuffers(t *testing.T) {
	p, err := core.New(core.InpHT, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newClusterNode(t, p, Options{})
	body, err := encoding.MarshalBatch(p.Name(), makeClusterReports(t, p, maxPooledReports+batchChunk, 6))
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := serveBatch(s, body, int64(len(body))); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	for range 64 {
		b := batchBufPool.Get().(*batchBuffers)
		if cap(b.reps) > maxPooledReports || cap(b.ends) > maxPooledReports || cap(b.body) > maxPooledBodyBytes {
			t.Fatalf("pool handed out a workspace of %d reports, %d ends, %d body bytes; it keeps at most %d reports and %d bytes",
				cap(b.reps), cap(b.ends), cap(b.body), maxPooledReports, maxPooledBodyBytes)
		}
	}
}
