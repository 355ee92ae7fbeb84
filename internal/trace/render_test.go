package trace

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// color is an attribute value that is only a fmt.Stringer.
type color int

func (c color) String() string { return [...]string{"red", "green"}[c] }

var (
	traceIDForm = regexp.MustCompile(`^[0-9a-f]{32}$`)
	spanIDForm  = regexp.MustCompile(`^[0-9a-f]{16}$`)
)

// TestSnapshotRendering pins what GET /debug/traces renders for a
// remote-parented trace with every attribute kind the deployment sets,
// and for a trace that overflowed its span cap: every field but the
// timings (start offsets, durations, event offsets, ended_at), which are
// checked only for presence. Ids are checked for their form — 32 and 16
// lowercase hex characters — and then replaced by names, so the parent
// links are pinned too.
func TestSnapshotRendering(t *testing.T) {
	tr := New(nil)
	remoteTrace := TraceID{0x0a, 0xf7, 0x65, 0x19, 0x16, 0xcd, 0x43, 0xdd, 0x84, 0x48, 0xeb, 0x21, 0x1c, 0x80, 0x31, 0x9c}
	remoteParent := SpanID{0xb7, 0xad, 0x6b, 0x71, 0x69, 0x20, 0x33, 0x31}
	ctx, root := tr.StartRemoteRoot(context.Background(), "http.request", remoteTrace, remoteParent)
	root.SetAttr("method", "POST")
	root.SetAttr("path", "/report/batch")
	cctx, child := StartSpan(ctx, "wal.append")
	child.SetAttr("reports", 1024)
	child.SetAttr("bytes", int64(-3))
	child.SetAttr("seq", uint64(1)<<63)
	child.SetAttr("admitted", true)
	child.SetAttr("degraded", false)
	child.SetAttr("error", errors.New("disk full"))
	child.SetAttr("health", color(1))
	child.SetAttr("wait", 1500*time.Millisecond)
	child.SetAttr("tv", 0.125)
	child.SetAttr("l1", 1e-7)
	child.SetAttr("empty", "")
	_, grand := StartSpan(cctx, "wal.fsync")
	grand.End()
	child.End()
	root.SetAttr("status", 200)
	root.End()

	fctx, flood := tr.StartRoot(context.Background(), "flood")
	for i := 0; i < maxSpansPerTrace+2; i++ {
		_, s := StartSpan(fctx, "child")
		s.End()
	}
	flood.End()

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	traces := body["traces"].([]any)
	if len(traces) != 2 {
		t.Fatalf("%d traces rendered, want 2", len(traces))
	}
	// The flood trace: newest first, its spans only counted here.
	ft := traces[0].(map[string]any)
	if ft["root"] != "flood" || ft["dropped_spans"] != float64(3) || len(ft["spans"].([]any)) != maxSpansPerTrace {
		t.Fatalf("flood trace: root %v dropped %v spans %d", ft["root"], ft["dropped_spans"], len(ft["spans"].([]any)))
	}
	if _, ok := ft["remote"]; ok {
		t.Errorf("local trace renders remote: %v", ft["remote"])
	}
	delete(body, "traces")
	if got, _ := json.Marshal(body); string(got) != `{"dropped_spans_total":3,"spans_total":262,"traces_total":2}` {
		t.Errorf("counters %s", got)
	}

	got := traces[1].(map[string]any)
	names := map[string]string{root.TraceID().String(): "TRACE", remoteParent.String(): "REMOTE"}
	rename := func(id any, form *regexp.Regexp, what string) string {
		s, _ := id.(string)
		if !form.MatchString(s) {
			t.Errorf("%s %q is not of the form %s", what, s, form)
		}
		if n, ok := names[s]; ok {
			return n
		}
		n := "SPAN" + string(rune('A'+len(names)-2))
		names[s] = n
		return n
	}
	got["trace_id"] = rename(got["trace_id"], traceIDForm, "trace id")
	for _, k := range []string{"ended_at", "duration_us"} {
		if _, ok := got[k]; !ok {
			t.Errorf("trace has no %s", k)
		}
		delete(got, k)
	}
	for _, s := range got["spans"].([]any) {
		sp := s.(map[string]any)
		sp["span_id"] = rename(sp["span_id"], spanIDForm, "span id")
		if p, ok := sp["parent_id"]; ok {
			sp["parent_id"] = rename(p, spanIDForm, "parent id")
		}
		for _, k := range []string{"start_offset_us", "duration_us"} {
			if _, ok := sp[k]; !ok {
				t.Errorf("span %v has no %s", sp["name"], k)
			}
			delete(sp, k)
		}
	}
	if root.TraceID() != remoteTrace {
		t.Errorf("remote root minted trace %s, want the remote %s", root.TraceID(), remoteTrace)
	}
	const want = `{"remote":true,"root":"http.request","spans":[` +
		`{"name":"wal.fsync","parent_id":"SPANB","span_id":"SPANA"},` +
		`{"attrs":[{"key":"reports","value":"1024"},{"key":"bytes","value":"-3"},{"key":"seq","value":"9223372036854775808"},` +
		`{"key":"admitted","value":"true"},{"key":"degraded","value":"false"},{"key":"error","value":"disk full"},` +
		`{"key":"health","value":"green"},{"key":"wait","value":"1.5s"},{"key":"tv","value":"0.125"},{"key":"l1","value":"1e-07"},` +
		`{"key":"empty","value":""}],"name":"wal.append","parent_id":"SPANC","span_id":"SPANB"},` +
		`{"attrs":[{"key":"method","value":"POST"},{"key":"path","value":"/report/batch"},{"key":"status","value":"200"}],` +
		`"name":"http.request","parent_id":"REMOTE","span_id":"SPANC"}],"trace_id":"TRACE"}`
	if out, _ := json.Marshal(got); string(out) != want {
		t.Errorf("rendered trace\n%s\nwant\n%s", out, want)
	}
	if id := remoteParent.String(); id != "b7ad6b7169203331" || remoteTrace.String() != strings.ToLower("0AF7651916CD43DD8448EB211C80319C") {
		t.Errorf("ids render as %s and %s", id, remoteTrace)
	}
}
