package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestRootAndChildSpans pins the core span lifecycle: a root with two
// children lands in the ring as one trace with three records, parents
// wired, attrs retained.
func TestRootAndChildSpans(t *testing.T) {
	tr := New(nil)
	ctx, root := tr.StartRoot(context.Background(), "http.request")
	root.SetAttr("path", "/report")

	cctx, child := StartSpan(ctx, "wal.append")
	child.SetAttr("bytes", 128)
	_, grand := StartSpan(cctx, "wal.fsync")
	grand.End()
	child.End()
	root.End()

	snap := tr.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(snap.Traces))
	}
	got := snap.Traces[0]
	if got.TraceID != root.TraceID().String() {
		t.Fatalf("trace id %s, want %s", got.TraceID, root.TraceID())
	}
	if got.Root != "http.request" || got.Remote {
		t.Fatalf("root %q remote %v, want http.request local", got.Root, got.Remote)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("%d spans, want 3", len(got.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range got.Spans {
		byName[s.Name] = s
	}
	if byName["wal.append"].ParentID != root.SpanID().String() {
		t.Errorf("wal.append parent %s, want root %s", byName["wal.append"].ParentID, root.SpanID())
	}
	if byName["wal.fsync"].ParentID != byName["wal.append"].SpanID {
		t.Errorf("wal.fsync parent %s, want wal.append %s", byName["wal.fsync"].ParentID, byName["wal.append"].SpanID)
	}
	if byName["http.request"].ParentID != "" {
		t.Errorf("root parent %q, want none", byName["http.request"].ParentID)
	}
	if a := byName["wal.append"].Attrs; len(a) != 1 || a[0].Key != "bytes" || a[0].Value != "128" {
		t.Errorf("attrs %+v, want bytes=128", a)
	}
	st := tr.Stats()
	if st.Spans != 3 || st.Traces != 1 || st.DroppedSpans != 0 || len(tr.Snapshot().Traces) != 1 {
		t.Errorf("stats %+v, want 3 spans / 1 trace / 0 dropped / 1 retained", st)
	}
}

// TestNilSpanSafety pins the no-op contract: every method on a nil
// span (the path when tracing isn't wired) is safe, and StartSpan on a
// bare context returns nil.
func TestNilSpanSafety(t *testing.T) {
	ctx, s := StartSpan(context.Background(), "anything")
	if s != nil {
		t.Fatal("StartSpan on a bare context minted a span")
	}
	s.SetAttr("k", "v")
	s.End()
	s.Discard()
	if !s.TraceID().IsZero() || !s.SpanID().IsZero() {
		t.Error("nil span has non-zero ids")
	}
	Inject(s, http.Header{})
	if FromContext(ctx) != nil {
		t.Error("bare context carries a span")
	}
}

// TestTraceparentRoundTrip pins W3C propagation: Inject writes a
// header Extract parses back to the same ids, and StartRemoteRoot
// continues the trace id while recording the remote parent.
func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(nil)
	_, root := tr.StartRoot(context.Background(), "cluster.pull")
	h := http.Header{}
	Inject(root, h)

	wantHeader := fmt.Sprintf("00-%s-%s-01", root.TraceID(), root.SpanID())
	if got := h.Get(TraceParentHeader); got != wantHeader {
		t.Fatalf("traceparent %q, want %q", got, wantHeader)
	}
	tid, parent, ok := Extract(h)
	if !ok || tid != root.TraceID() || parent != root.SpanID() {
		t.Fatalf("Extract = (%s, %s, %v), want (%s, %s, true)", tid, parent, ok, root.TraceID(), root.SpanID())
	}

	remote := New(nil)
	_, rroot := remote.StartRemoteRoot(context.Background(), "http.request", tid, parent)
	if rroot.TraceID() != root.TraceID() {
		t.Fatalf("remote root trace %s, want continued %s", rroot.TraceID(), root.TraceID())
	}
	rroot.End()
	root.End()
	snap := remote.Snapshot()
	if len(snap.Traces) != 1 || !snap.Traces[0].Remote {
		t.Fatalf("remote snapshot %+v, want one remote trace", snap.Traces)
	}
	if snap.Traces[0].Spans[0].ParentID != parent.String() {
		t.Errorf("remote root parent %s, want %s", snap.Traces[0].Spans[0].ParentID, parent)
	}
}

// TestExtractRejectsMalformed pins the refusal cases: wrong length,
// wrong version, non-hex, and all-zero ids.
func TestExtractRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"00-abc-def-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // future version
		"00-zzf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // non-hex trace id
		"00-0af7651916cd43dd8448eb211c80319c-zzad6b7169203331-01", // non-hex span id
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz", // non-hex flags
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
		"00x0af7651916cd43dd8448eb211c80319cxb7ad6b7169203331x01", // wrong separators
	}
	for _, v := range cases {
		h := http.Header{}
		if v != "" {
			h.Set(TraceParentHeader, v)
		}
		if _, _, ok := Extract(h); ok {
			t.Errorf("Extract accepted %q", v)
		}
	}
	h := http.Header{}
	h.Set(TraceParentHeader, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if _, _, ok := Extract(h); !ok {
		t.Error("Extract rejected a valid header")
	}
}

// TestRingBoundAndEviction pins the bounded ring: capacity+k roots
// retain only capacity traces, newest first.
func TestRingBoundAndEviction(t *testing.T) {
	tr := New(nil)
	const roots = DefaultCapacity + 3
	for i := 0; i < roots; i++ {
		_, root := tr.StartRoot(context.Background(), fmt.Sprintf("op-%d", i))
		root.End()
	}
	snap := tr.Snapshot()
	if len(snap.Traces) != DefaultCapacity {
		t.Fatalf("retained %d, want %d", len(snap.Traces), DefaultCapacity)
	}
	for i, tj := range snap.Traces {
		if want := fmt.Sprintf("op-%d", roots-1-i); tj.Root != want {
			t.Errorf("trace[%d] root %q, want %q (newest first)", i, tj.Root, want)
		}
	}
	if snap.CompletedTraces != roots {
		t.Errorf("traces_total %d, want %d", snap.CompletedTraces, roots)
	}
}

// TestSpanCapCountsDropped pins the per-trace span cap: spans beyond
// maxSpansPerTrace are counted as dropped, not retained.
func TestSpanCapCountsDropped(t *testing.T) {
	tr := New(nil)
	ctx, root := tr.StartRoot(context.Background(), "flood")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, s := StartSpan(ctx, "child")
		s.End()
	}
	root.End()
	snap := tr.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(snap.Traces))
	}
	got := snap.Traces[0]
	if len(got.Spans) != maxSpansPerTrace {
		t.Errorf("%d spans retained, want cap %d", len(got.Spans), maxSpansPerTrace)
	}
	// 10 children over the cap, plus the root itself arriving after the
	// cap filled.
	if got.DroppedSpans != 11 || snap.DroppedSpans != 11 {
		t.Errorf("dropped %d (total %d), want 11", got.DroppedSpans, snap.DroppedSpans)
	}
}

// TestDiscardSkipsRing pins Discard: an abandoned root records
// nothing, so periodic no-ops don't flood the ring.
func TestDiscardSkipsRing(t *testing.T) {
	tr := New(nil)
	_, root := tr.StartRoot(context.Background(), "window.advance")
	root.Discard()
	root.End() // must stay a no-op after Discard
	if snap := tr.Snapshot(); len(snap.Traces) != 0 || snap.CompletedTraces != 0 {
		t.Fatalf("discarded root still recorded: %+v", snap)
	}
}

// TestSlowTraceLog pins the slow-trace hook: only roots at or above
// the threshold are reported.
func TestSlowTraceLog(t *testing.T) {
	var (
		mu    sync.Mutex
		lines []string
	)
	tr := New(func(traceID, rootName string, d time.Duration) {
		mu.Lock()
		lines = append(lines, rootName)
		mu.Unlock()
	})
	tr.slow = 20 * time.Millisecond
	_, fast := tr.StartRoot(context.Background(), "fast")
	fast.End()
	_, slow := tr.StartRoot(context.Background(), "slow")
	time.Sleep(25 * time.Millisecond)
	slow.End()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || lines[0] != "slow" {
		t.Fatalf("slow log %v, want [slow]", lines)
	}
}

// TestHandlerJSON pins the /debug/traces contract: GET returns the
// ring as JSON, other methods 405 with Allow.
func TestHandlerJSON(t *testing.T) {
	tr := New(nil)
	_, root := tr.StartRoot(context.Background(), "op")
	root.End()
	ts := httptest.NewServer(tr.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var body TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Traces) != 1 || body.Traces[0].Root != "op" || body.Spans != 1 {
		t.Fatalf("body %+v, want one op trace", body)
	}

	post, err := http.Post(ts.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed || post.Header.Get("Allow") != http.MethodGet {
		t.Fatalf("POST: status %d Allow %q, want 405 GET", post.StatusCode, post.Header.Get("Allow"))
	}
}

// TestConcurrentSpansAndSnapshot races span creation, ending, and ring
// snapshots; run under -race this pins the locking discipline.
func TestConcurrentSpansAndSnapshot(t *testing.T) {
	tr := New(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartRoot(context.Background(), fmt.Sprintf("g%d", g))
				_, child := StartSpan(ctx, "child")
				child.End()
				root.End()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	if st := tr.Stats(); st.Traces != 400 || st.Spans != 800 {
		t.Fatalf("stats %+v, want 400 traces / 800 spans", st)
	}
}

// TestIDUniqueness sanity-checks the SplitMix64 stream: no collisions
// across a large draw.
func TestIDUniqueness(t *testing.T) {
	seen := make(map[TraceID]bool, 10000)
	for i := 0; i < 10000; i++ {
		id := newTraceID()
		if id.IsZero() {
			t.Fatal("zero trace id minted")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
}
