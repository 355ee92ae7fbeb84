package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
)

// TestHandlerHTTPHygiene is the handler-matrix pin of two RFC 9110
// behaviors across every route: a 405 always names the allowed method
// in the Allow header (§15.5.6), and every JSON reply declares
// Content-Type: application/json.
func TestHandlerHTTPHygiene(t *testing.T) {
	_, singleTS, p := newTestServer(t)
	// A coordinator exercises the /pull route's happy path too.
	_, edgeTS := newClusterNode(t, p, Options{Role: RoleEdge, NodeID: "hyg-edge"})
	_, coordTS := newClusterNode(t, p, Options{
		Role: RoleCoordinator, NodeID: "hyg-coord",
		Peers: []string{edgeTS.URL}, PullInterval: time.Minute,
	})

	// One report so /marginal has an in-contract answer.
	client := p.NewClient()
	rep, err := client.Perturb(3, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encoding.Marshal(p.Name(), rep)
	if err != nil {
		t.Fatal(err)
	}
	if resp := postReport(t, singleTS.URL, p, rep); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("seed report: %d", resp.StatusCode)
	}
	postRefresh(t, singleTS.URL)

	routes := []struct {
		path   string
		method string   // the one allowed method
		body   []byte   // valid request body for the happy path
		ctype  string   // expected success Content-Type ("" = no body assertion)
		wrong  []string // methods that must 405
	}{
		{"/report", http.MethodPost, frame, "", []string{http.MethodGet, http.MethodDelete, http.MethodPut}},
		{"/report/batch", http.MethodPost, mustBatch(t, p, rep), "application/json", []string{http.MethodGet, http.MethodHead}},
		{"/marginal?beta=3", http.MethodGet, nil, "application/json", []string{http.MethodPost, http.MethodDelete}},
		{"/query", http.MethodPost, []byte(`{"q":"a0=1"}`), "application/json", []string{http.MethodGet, http.MethodPatch}},
		{"/refresh", http.MethodPost, nil, "application/json", []string{http.MethodGet}},
		{"/view/status", http.MethodGet, nil, "application/json", []string{http.MethodPost}},
		{"/view/diagnostics", http.MethodGet, nil, "application/json", []string{http.MethodPost, http.MethodDelete}},
		{"/state", http.MethodGet, nil, "application/octet-stream", []string{http.MethodPost, http.MethodPut}},
		{"/status", http.MethodGet, nil, "application/json", []string{http.MethodPost}},
		{"/healthz", http.MethodGet, nil, "application/json", []string{http.MethodPost, http.MethodDelete}},
		{"/readyz", http.MethodGet, nil, "application/json", []string{http.MethodPost, http.MethodDelete}},
		{"/metrics", http.MethodGet, nil, "text/plain", []string{http.MethodPost, http.MethodDelete}},
		{"/debug/traces", http.MethodGet, nil, "application/json", []string{http.MethodPost, http.MethodDelete}},
	}
	do := func(method, url string, body []byte) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, rt := range routes {
		// Wrong methods: 405 with the Allow header — and, for the JSON
		// error shape, the request's trace id matching the X-LDP-Trace-Id
		// echo, so a client-side failure report can be joined against
		// /debug/traces. (/debug/traces itself is exempt from tracing.)
		for _, m := range rt.wrong {
			resp := do(m, singleTS.URL+rt.path, nil)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", m, rt.path, resp.StatusCode)
				continue
			}
			if got := resp.Header.Get("Allow"); got != rt.method {
				t.Errorf("%s %s: Allow %q, want %q", m, rt.path, got, rt.method)
			}
			// /metrics and /debug/traces answer their own text 405s, and a
			// HEAD response carries no body to assert on.
			if rt.path == "/metrics" || rt.path == "/debug/traces" || m == http.MethodHead {
				continue
			}
			echoed := resp.Header.Get("X-LDP-Trace-Id")
			if echoed == "" {
				t.Errorf("%s %s: no X-LDP-Trace-Id header on error reply", m, rt.path)
				continue
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Errorf("%s %s: error body %q is not ErrorResponse JSON: %v", m, rt.path, body, err)
				continue
			}
			if er.TraceID != echoed {
				t.Errorf("%s %s: body trace_id %q != header %q", m, rt.path, er.TraceID, echoed)
			}
			if er.Error == "" {
				t.Errorf("%s %s: empty error message", m, rt.path)
			}
		}
		// Happy path: correct Content-Type.
		if rt.ctype == "" {
			continue
		}
		resp := do(rt.method, singleTS.URL+rt.path, rt.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Errorf("%s %s: status %d (%s)", rt.method, rt.path, resp.StatusCode, body)
			continue
		}
		if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, rt.ctype) {
			t.Errorf("%s %s: Content-Type %q, want %q", rt.method, rt.path, got, rt.ctype)
		}
	}

	// /pull: 405+Allow on the wrong method, JSON on the happy path —
	// on the coordinator, where the role serves it.
	resp := do(http.MethodGet, coordTS.URL+"/pull", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /pull: status %d Allow %q, want 405 POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
	resp = do(http.MethodPost, coordTS.URL+"/pull", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("POST /pull: status %d Content-Type %q, want 200 application/json", resp.StatusCode, ct)
	}

	// Error JSON replies keep the declared type: a rejected batch is a
	// JSON BatchResponse and must say so — and carry the request's trace
	// id like every other error reply.
	bad := mustBatch(t, p, core.Report{Index: 1 << 60, Sign: 1})
	resp = do(http.MethodPost, singleTS.URL+"/report/batch", bad)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("rejected batch: status %d Content-Type %q, want 400 application/json", resp.StatusCode, ct)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("rejected batch body %q: %v", body, err)
	}
	if br.TraceID == "" || br.TraceID != resp.Header.Get("X-LDP-Trace-Id") {
		t.Errorf("rejected batch: trace_id %q, header %q", br.TraceID, resp.Header.Get("X-LDP-Trace-Id"))
	}
}

// TestMaxQueryBytesOption pins the /query body limit: a body over
// maxQueryBytes is a 400, and ordinary batches are admitted.
func TestMaxQueryBytesOption(t *testing.T) {
	_, ts, _ := newTestServer(t)
	small := []byte(`{"queries":["a0=1","a1=1","a2=1","a3=1","a4=1","a5=1","a6=1","a7=1"]}`)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-limit query: status %d", resp.StatusCode)
	}
	big := []byte(`{"q":"a0=1` + strings.Repeat(" ", maxQueryBytes) + `"}`)
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-limit query: status %d, want 400", resp.StatusCode)
	}
}

func mustBatch(t *testing.T, p core.Protocol, reps ...core.Report) []byte {
	t.Helper()
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
