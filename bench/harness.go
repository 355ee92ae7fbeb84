package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/core"
)

// connections is the number of client connections (and closed-loop
// client goroutines) every concurrent phase drives the deployment with:
// one per core of the reference box.
const connections = 2

// harness drives one workload run: it owns the client connections, the
// operation counters, and (in a traced round) the span recorder.
type harness struct {
	w  workload
	p  core.Protocol
	in *inputs

	conns [connections]*http.Client

	// rec is nil outside a traced round.
	rec atomic.Pointer[recorder]
	// pullSpan is the span of the POST /pull in flight, so the /state
	// replies it causes can be recorded as its children.
	pullSpan atomic.Int64
	// stateBytes counts /state reply body bytes served by ingest nodes.
	stateBytes atomic.Int64
	// firstPullBytes is what the coordinator's first (full) pull of the
	// preloaded fleet moved, and setups how long every set-up so far took
	// (seconds).
	firstPullBytes int64
	setups         []float64

	attempted atomic.Int64
	failed    atomic.Int64
	acked     atomic.Int64 // reports acked by /report/batch so far

	// aroundIngest, when set, is called just before and just after the
	// ingest phase (the traced round reads the process counters there).
	aroundIngest func(start bool)

	// cursor is the next body a sequential post sends; bodies are used
	// round-robin, each landing on ingest node (index mod nodes).
	cursor int
	// shuffled switches the posts from the population's own order (the
	// preload and the wire probe, whose state and sizes must repeat
	// exactly) to the seed's order (the timed rounds).
	shuffled bool

	mu       sync.Mutex
	problems []string // first few failed operations, for the report
}

func newHarness(w workload, p core.Protocol, in *inputs) *harness {
	h := &harness{w: w, p: p, in: in}
	for i := range h.conns {
		// One connection per host per client: a phase that uses both
		// clients drives a node over exactly two connections.
		h.conns[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		}}
	}
	return h
}

func (h *harness) close() {
	for _, c := range h.conns {
		c.CloseIdleConnections()
	}
}

// fail records one failed operation.
func (h *harness) fail(format string, args ...any) {
	h.failed.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.problems) < 10 {
		h.problems = append(h.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation that fails unless ok.
func (h *harness) check(ok bool, format string, args ...any) {
	h.attempted.Add(1)
	if !ok {
		h.fail(format, args...)
	}
}

// call makes one HTTP request on connection c as one attempted
// operation and one span under parent: any transport error or a status
// other than want is a failed operation. It returns the reply body and
// the request's duration as the client saw it.
func (h *harness) call(c, parent int, name, method, url string, body []byte, want int) ([]byte, time.Duration, bool) {
	return h.callIn(c, h.rec.Load().begin(parent, name), method, url, body, want)
}

// callIn is call inside a span the caller already opened; it closes it.
func (h *harness) callIn(c, id int, method, url string, body []byte, want int) ([]byte, time.Duration, bool) {
	h.attempted.Add(1)
	t0 := time.Now()
	reply, status, err := h.roundTrip(c, method, url, body)
	dur := time.Since(t0)
	h.rec.Load().end(id, 1, int64(len(body)+len(reply)))
	if err != nil {
		h.fail("%s %s: %v", method, url, err)
		return nil, dur, false
	}
	if status != want {
		h.fail("%s %s: status %d, want %d: %s", method, url, status, want, bytes.TrimSpace(reply))
		return reply, dur, false
	}
	return reply, dur, true
}

func (h *harness) roundTrip(c int, method, url string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := h.conns[c].Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return reply, resp.StatusCode, err
}

// postBatch posts body i (mod the generated set) to its ingest node and
// verifies the ack covers the whole batch.
func (h *harness) postBatch(d *deployment, c, parent, i int) (time.Duration, bool) {
	slot := i % len(h.in.Bodies)
	if h.shuffled {
		slot = h.in.Order[slot]
	}
	body := h.in.Bodies[slot]
	target := d.ingest[i%len(d.ingest)].url + "/report/batch"
	reply, dur, ok := h.call(c, parent, "http.report_batch", http.MethodPost, target, body, http.StatusOK)
	if !ok {
		return dur, false
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(reply, &ack); err != nil || ack.Accepted != h.in.Batch {
		h.fail("POST /report/batch: acked %d of %d reports (%s)", ack.Accepted, h.in.Batch, bytes.TrimSpace(reply))
		return dur, false
	}
	h.acked.Add(int64(ack.Accepted))
	return dur, true
}

// postNext posts the next unsent body on connection 0.
func (h *harness) postNext(d *deployment, parent int) bool {
	_, ok := h.postBatch(d, 0, parent, h.cursor)
	h.cursor++
	return ok
}

// postQuery posts query body i (mod the generated set) to the serving
// node and verifies every conjunction was answered.
func (h *harness) postQuery(d *deployment, c, parent, i int) bool {
	body := h.in.Queries[i%len(h.in.Queries)]
	reply, _, ok := h.call(c, parent, "http.query", http.MethodPost, d.serving.url+"/query", body, http.StatusOK)
	if !ok {
		return false
	}
	if bytes.Count(reply, []byte(`"fraction"`)) != queriesPerRequest || bytes.Contains(reply, []byte(`"error"`)) {
		h.fail("POST /query: not every conjunction answered: %s", bytes.TrimSpace(reply))
		return false
	}
	return true
}

// ingestPhase posts w.ingestPosts batches over every connection (closed
// loop) and returns the acked reports per second over the phase's span.
// In a mixed workload connection 0 posts alone while connection 1
// queries until the posts are done; the conjunctions answered per second
// over the same span are returned too, so a gain for the writer that
// costs the reader shows in one round's pair of numbers.
func (h *harness) ingestPhase(d *deployment, parent int) (reportsPerS, answersPerS float64, span time.Duration) {
	base := h.cursor
	posts := h.w.ingestPosts
	h.cursor += posts
	var (
		next     atomic.Int64
		answered atomic.Int64
		done     atomic.Bool
		wg       sync.WaitGroup
	)
	poster := func(c int) {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= posts {
				return
			}
			h.postBatch(d, c, parent, base+i)
		}
	}
	ackedBefore := h.acked.Load()
	t0 := time.Now()
	if h.w.mixed {
		var answers int64
		wg.Add(2)
		go func() {
			poster(0)
			span, answers = time.Since(t0), answered.Load()
			done.Store(true)
		}()
		go func() {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				if h.postQuery(d, 1, parent, i) {
					answered.Add(queriesPerRequest)
				}
			}
		}()
		wg.Wait()
		answersPerS = float64(answers) / span.Seconds()
	} else {
		for c := range h.conns {
			wg.Add(1)
			go poster(c)
		}
		wg.Wait()
		span = time.Since(t0)
	}
	return float64(h.acked.Load()-ackedBefore) / span.Seconds(), answersPerS, span
}

// queryPhase posts w.queryPosts query bodies over every connection and
// returns the conjunctions answered per second over the phase's span.
func (h *harness) queryPhase(d *deployment, parent int) (answersPerS float64, span time.Duration) {
	var (
		next     atomic.Int64
		answered atomic.Int64
		wg       sync.WaitGroup
	)
	t0 := time.Now()
	for c := range h.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= h.w.queryPosts {
					return
				}
				if h.postQuery(d, c, parent, i) {
					answered.Add(queriesPerRequest)
				}
			}
		}(c)
	}
	wg.Wait()
	span = time.Since(t0)
	return float64(answered.Load()) / span.Seconds(), span
}

// freshSamples are the timings of one round's freshness cycles.
type freshSamples struct {
	refresh   []time.Duration // POST /refresh, incremental epochs
	rebuild   []time.Duration // POST /refresh, full-rebuild epochs
	pull      []time.Duration // POST /pull after one shard moved
	snapshot  []float64       // snapshot_ms of each refresh reply
	wireBytes int64           // /state body bytes over all the pulls
}

// pull posts /pull to a coordinator as the span the /state replies hang
// under, verifies no peer failed, and returns the reply's peer report
// total and the /state bytes the pull moved.
func (h *harness) pull(parent int, name, url string) (dur time.Duration, peerN int, wire int64, ok bool) {
	// The span is opened here, not by call, so that the /state replies
	// the pull causes can name it as their parent while it is in flight.
	id := h.rec.Load().begin(parent, name)
	h.pullSpan.Store(int64(id))
	before := h.stateBytes.Load()
	reply, dur, ok := h.callIn(0, id, http.MethodPost, url+"/pull", nil, http.StatusOK)
	wire = h.stateBytes.Load() - before
	h.pullSpan.Store(0)
	if !ok {
		return dur, 0, wire, false
	}
	var st struct {
		Peers []struct {
			N         int    `json:"n"`
			LastError string `json:"last_error"`
		} `json:"peers"`
	}
	if err := json.Unmarshal(reply, &st); err != nil {
		h.fail("POST /pull: undecodable reply: %v", err)
		return dur, 0, wire, false
	}
	for _, p := range st.Peers {
		if p.LastError != "" {
			h.fail("POST /pull: peer failed: %s", p.LastError)
			return dur, 0, wire, false
		}
		peerN += p.N
	}
	return dur, peerN, wire, true
}

// viewStatus is the part of a /refresh or /view/status reply the
// harness reads.
type viewStatus struct {
	ViewN          int     `json:"view_n"`
	SnapshotMillis float64 `json:"snapshot_ms"`
	Incremental    bool    `json:"incremental"`
	Tables         int     `json:"tables"`
}

func (h *harness) refresh(parent int, url string) (viewStatus, time.Duration, bool) {
	var vs viewStatus
	reply, dur, ok := h.call(0, parent, "http.refresh", http.MethodPost, url+"/refresh", nil, http.StatusOK)
	if !ok {
		return vs, dur, false
	}
	if err := json.Unmarshal(reply, &vs); err != nil {
		h.fail("POST /refresh: undecodable reply: %v", err)
		return vs, dur, false
	}
	return vs, dur, true
}

// freshPhase runs w.freshCycles freshness cycles: post the next body
// (untimed; it moves one shard of one ingest node), time POST /pull on
// the coordinator, time POST /refresh on the serving node.
func (h *harness) freshPhase(d *deployment, parent int) freshSamples {
	var s freshSamples
	for range h.w.freshCycles {
		if !h.postNext(d, parent) {
			continue
		}
		dur, peerN, wire, ok := h.pull(parent, "http.pull_delta", d.coord.url)
		if ok {
			h.check(int64(peerN) == h.acked.Load(), "delta pull: coordinator holds %d reports, %d acked", peerN, h.acked.Load())
			s.pull = append(s.pull, dur)
			s.wireBytes += wire
		}
		vs, dur, ok := h.refresh(parent, d.serving.url)
		if !ok {
			continue
		}
		h.check(int64(vs.ViewN) == h.acked.Load(), "refresh: view holds %d reports, %d acked", vs.ViewN, h.acked.Load())
		s.snapshot = append(s.snapshot, vs.SnapshotMillis)
		if vs.Incremental {
			s.refresh = append(s.refresh, dur)
		} else {
			s.rebuild = append(s.rebuild, dur)
		}
	}
	return s
}

// fullPhase runs w.fullCycles cold pulls: construct a fresh coordinator
// (untimed), time its first POST /pull, close it.
func (h *harness) fullPhase(d *deployment, parent int) (pulls []time.Duration, wireBytes int64, err error) {
	for range h.w.fullCycles {
		srv, err := d.newCoordinator(d.peerURLs())
		if err != nil {
			return nil, 0, fmt.Errorf("constructing a fresh coordinator: %w", err)
		}
		d.freshSwap.set(srv.Handler())
		dur, peerN, wire, ok := h.pull(parent, "http.pull_full", d.fresh.url)
		d.freshSwap.set(http.NotFoundHandler())
		if err := srv.Close(); err != nil {
			return nil, 0, err
		}
		if ok {
			h.check(int64(peerN) == h.acked.Load(), "full pull: coordinator holds %d reports, %d acked", peerN, h.acked.Load())
			pulls = append(pulls, dur)
			wireBytes += wire
		}
	}
	return pulls, wireBytes, nil
}
