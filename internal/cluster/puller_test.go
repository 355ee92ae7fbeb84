package cluster

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/window"
	"ldpmarginals/internal/wire"
)

// testCfg keeps the exchange tests fast: a small domain, every protocol
// still exercising its full state codec.
var testCfg = core.Config{D: 6, K: 2, Epsilon: 1.2, OptimizedPRR: true}

// makeReports perturbs a deterministic record stream.
func makeReports(t *testing.T, p core.Protocol, n int, seed uint64) []core.Report {
	t.Helper()
	client := p.NewClient()
	r := rng.New(seed)
	reps := make([]core.Report, n)
	for i := range reps {
		rep, err := client.Perturb(uint64(i)%(1<<testCfg.D), r)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

// newTestEdge is an ingesting node's side of the exchange: a ring of the
// given window options and its exporter.
func newTestEdge(t *testing.T, p core.Protocol, nodeID string, opts window.Options) (*window.Ring, *Exporter) {
	t.Helper()
	ring, err := window.NewRing(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExporter(p, ring, nodeID)
	if err != nil {
		t.Fatal(err)
	}
	return ring, e
}

// stateHandler answers GET /state from e.
func stateHandler(e *Exporter) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := e.ServeState(w, r); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// newTestCoordinator is a coordinator's side of the exchange: a fleet
// over the peer URLs and its puller, which pulls only when a test forces
// a round.
func newTestCoordinator(t *testing.T, p core.Protocol, nodeID string, peers ...string) *Puller {
	t.Helper()
	f, err := NewFleet(p, peers, "", nodeID)
	if err != nil {
		t.Fatal(err)
	}
	return NewPuller(f, time.Minute, nil, slog.New(slog.DiscardHandler))
}

// forcePull runs one forced round and fails on any peer's pull error.
func forcePull(t *testing.T, pl *Puller) {
	t.Helper()
	pl.Round(context.Background(), true)
	peers, _ := pl.f.status()
	for _, pe := range peers {
		if pe.LastError != "" {
			t.Fatalf("pull of %s failed: %s", pe.URL, pe.LastError)
		}
	}
}

// heldComponents flattens what a fleet holds across its peers.
func heldComponents(f *Fleet) map[string]peerComp {
	f.mu.Lock()
	defer f.mu.Unlock()
	all := make(map[string]peerComp)
	for _, pe := range f.peers {
		for id, c := range pe.comps {
			all[id] = c
		}
	}
	return all
}

// sameHeldComponents fails unless two fleets hold the same components:
// ids, version labels, report counts and blob bytes.
func sameHeldComponents(t *testing.T, round string, got, want *Fleet) {
	t.Helper()
	g, w := heldComponents(got), heldComponents(want)
	if len(g) != len(w) || len(w) == 0 {
		t.Fatalf("%s: %s holds %d components, %s holds %d", round, got.ownID, len(g), want.ownID, len(w))
	}
	for id, wc := range w {
		gc, ok := g[id]
		if !ok || gc.version != wc.version || gc.n != wc.n || !bytes.Equal(gc.state, wc.state) {
			t.Fatalf("%s: component %s differs between %s and %s", round, id, got.ownID, want.ownID)
		}
	}
}

// TestBreakerTransitions unit-tests the circuit breaker's schedule
// logic: transient failures back off but never quarantine, only
// *consecutive* poison failures trip the breaker, and any clean pull
// closes it.
func TestBreakerTransitions(t *testing.T) {
	const url = "http://peer"
	f := &Fleet{peers: []*peerEntry{{url: url}}}
	pl := NewPuller(f, time.Second, nil, slog.New(slog.DiscardHandler))
	pe := f.peers[0]

	transient := errors.New("dial tcp: connection refused")
	poisoned := poison(errors.New("component frame checksum mismatch"))

	// Transient failures alone never quarantine, however many.
	for i := 0; i < 10; i++ {
		if h := pl.updateSchedule(url, transient); h != peerBackingOff {
			t.Fatalf("transient failure %d: health %v, want backing_off", i, h)
		}
	}
	if pe.quarantined || pe.poisonFails != 0 {
		t.Fatalf("transient failures tripped the breaker: %+v", pe)
	}

	// Two poisons, a transient, two more poisons: the transient breaks
	// the consecutive run, so no quarantine yet.
	pl.updateSchedule(url, poisoned)
	pl.updateSchedule(url, poisoned)
	pl.updateSchedule(url, transient)
	pl.updateSchedule(url, poisoned)
	if h := pl.updateSchedule(url, poisoned); h != peerBackingOff {
		t.Fatalf("after broken poison run: health %v, want backing_off", h)
	}
	if pe.quarantined {
		t.Fatal("non-consecutive poison failures tripped the breaker")
	}

	// The third consecutive poison trips it.
	if h := pl.updateSchedule(url, poisoned); h != peerQuarantined {
		t.Fatalf("after 3 consecutive poisons: health %v, want quarantined", h)
	}
	if pe.quarantines != 1 {
		t.Fatalf("quarantine bookkeeping: %+v", pe)
	}
	// Quarantined scheduling runs on the half-open timer (16 intervals,
	// 16s), not the exponential backoff: after 16 consecutive failures
	// that is at its cap, 32 intervals plus jitter, at least 32s.
	if wait := time.Until(pe.nextDue); wait <= 15*time.Second || wait > 16*time.Second {
		t.Fatalf("half-open probe due in %v, want 16s", wait)
	}
	// Further poison probes keep it quarantined without re-tripping.
	pl.updateSchedule(url, poisoned)
	if pe.quarantines != 1 {
		t.Fatalf("failed half-open probe re-counted a trip: %d", pe.quarantines)
	}

	// One clean pull closes the breaker and clears every counter.
	if h := pl.updateSchedule(url, nil); h != peerHealthy {
		t.Fatalf("after clean pull: health %v, want healthy", h)
	}
	if pe.quarantined || pe.fails != 0 || pe.poisonFails != 0 || pe.lastErr != "" {
		t.Fatalf("clean pull did not reset breaker state: %+v", pe)
	}
	if pe.quarantines != 1 {
		t.Fatalf("lifetime trip count lost on recovery: %d", pe.quarantines)
	}
}

// TestBackoffDelayJitterBounds pins the retry schedule: exponential in
// the failure count, capped at maxBackoffShift doublings, with bounded
// non-degenerate jitter.
func TestBackoffDelayJitterBounds(t *testing.T) {
	const interval = time.Second
	for fails := 1; fails <= 10; fails++ {
		shift := fails - 1
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		base := interval << shift
		sawJitter := false
		for i := 0; i < 200; i++ {
			d := backoffDelay(interval, fails)
			if d < base || d > base+base/2 {
				t.Fatalf("fails=%d: delay %v outside [%v, %v]", fails, d, base, base+base/2)
			}
			if d != base {
				sawJitter = true
			}
		}
		if !sawJitter {
			t.Errorf("fails=%d: 200 delays all exactly %v — jitter is degenerate", fails, base)
		}
	}
}

// TestPullAgeNeverNegative is the regression pin for stepped-back
// clocks: a pulledAt stamp stripped of its monotonic reading (Round(0))
// and sitting in the wall-clock future — the shape a stepped-back clock
// produces — must clamp the reported age at zero, not go negative and
// masquerade as the "never pulled" sentinel.
func TestPullAgeNeverNegative(t *testing.T) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := newTestCoordinator(t, p, "coord-age", "http://edge-age").f
	f.mu.Lock()
	f.peers[0].pulledAt = time.Now().Add(time.Hour).Round(0)
	f.mu.Unlock()
	peers, _ := f.status()
	if len(peers) != 1 {
		t.Fatalf("%d peers", len(peers))
	}
	if got := peers[0].LastPullAgeSeconds; got != 0 {
		t.Fatalf("future pull stamp reported age %v, want clamp at 0", got)
	}
	// The -1 "never pulled" sentinel is preserved.
	f.mu.Lock()
	f.peers[0].pulledAt = time.Time{}
	f.mu.Unlock()
	peers, _ = f.status()
	if got := peers[0].LastPullAgeSeconds; got != -1 {
		t.Fatalf("zero pull stamp reported age %v, want -1 sentinel", got)
	}
}

// TestDiffFallbackLadder walks the rungs below "diff": a base that is
// not the export the edge retains gets a full frame, and a diff that
// does not rebuild on what the puller holds costs exactly one more
// request, a full frame, in the same pull — after which diffs resume.
func TestDiffFallbackLadder(t *testing.T) {
	p, err := core.New(core.InpPS, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeReports(t, p, 300, 71)
	ring, edge := newTestEdge(t, p, "edge-1", window.Options{Shards: 2})
	var stateGets atomic.Int64
	inner := stateHandler(edge)
	edgeTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stateGets.Add(1)
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(edgeTS.Close)
	ingest := func(reps []core.Report) {
		t.Helper()
		if err := ring.ConsumeBatch(reps); err != nil {
			t.Fatal(err)
		}
	}
	a := newTestCoordinator(t, p, "coord-a", edgeTS.URL)
	b := newTestCoordinator(t, p, "coord-b", edgeTS.URL)
	aIns := a.ins[edgeTS.URL]
	type counts struct{ gets, full, delta, diffs uint64 }
	pullA := func() counts {
		t.Helper()
		before := counts{uint64(stateGets.Load()), aIns.fullPulls.Value(), aIns.deltaPulls.Value(), aIns.diffComps.Value()}
		forcePull(t, a)
		return counts{uint64(stateGets.Load()) - before.gets, aIns.fullPulls.Value() - before.full,
			aIns.deltaPulls.Value() - before.delta, aIns.diffComps.Value() - before.diffs}
	}

	ingest(reps[:100])
	if got := pullA(); got != (counts{gets: 1, full: 1}) {
		t.Fatalf("first pull: %+v, want one full frame", got)
	}
	ingest(reps[100:150])
	if got := pullA(); got != (counts{gets: 1, delta: 1, diffs: 1}) {
		t.Fatalf("second pull: %+v, want one delta with the component as a diff", got)
	}

	// Another puller's export replaces the retained one: a's base is no
	// longer the export the edge retains, so a is sent the full frame.
	ingest(reps[150:200])
	forcePull(t, b)
	ingest(reps[200:250])
	if got := pullA(); got != (counts{gets: 1, full: 1}) {
		t.Fatalf("pull against a stale retained blob: %+v, want one full frame", got)
	}
	forcePull(t, b)
	sameHeldComponents(t, "after the full frame", a.f, b.f)

	// a's copy of its base goes bad under an unchanged label (the races
	// the one-directional version guarantee allows end here too): the
	// rebuilt blob fails its checksum, and the pull recovers on its own.
	a.f.mu.Lock()
	pe := a.f.peers[0]
	bad := make(map[string]peerComp, len(pe.comps))
	for id, c := range pe.comps {
		c.state = append([]byte(nil), c.state...)
		c.state[len(c.state)-1] ^= 1
		bad[id] = c
	}
	pe.comps = bad
	a.f.mu.Unlock()
	ingest(reps[250:275])
	if got := pullA(); got != (counts{gets: 2, full: 1}) {
		t.Fatalf("pull onto a mismatched base: %+v, want the diff reply plus exactly one full re-fetch", got)
	}
	forcePull(t, b)
	sameHeldComponents(t, "after the full re-fetch", a.f, b.f)

	ingest(reps[275:])
	if got := pullA(); got != (counts{gets: 1, delta: 1, diffs: 1}) {
		t.Fatalf("pull after the re-fetch: %+v, want diffs to have resumed", got)
	}
	forcePull(t, b)
	sameHeldComponents(t, "at the end", a.f, b.f)
	if a.f.N() != len(reps) {
		t.Fatalf("coordinator holds %d reports, %d were ingested", a.f.N(), len(reps))
	}
}

// TestStaleDeltaBaseResolvedByOneFullFetch: a delta frame that decodes
// but was cut against a base this coordinator does not hold (here a fake
// /state answers the acknowledging request with the edge's whole state
// relabelled as a delta against another base) is refused by accept as a
// stale base, and the same pull resolves it with one full fetch: the
// pull succeeds and the coordinator ends holding the edge's state.
func TestStaleDeltaBaseResolvedByOneFullFetch(t *testing.T) {
	p, err := core.New(core.InpPS, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeReports(t, p, 200, 73)
	ring, edge := newTestEdge(t, p, "edge-1", window.Options{Shards: 2})
	var stale atomic.Bool
	var stateGets atomic.Int64
	inner := stateHandler(edge)
	edgeTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stateGets.Add(1)
		since := r.URL.Query().Get("since")
		if !stale.Load() || since == "" {
			inner.ServeHTTP(w, r)
			return
		}
		full := httptest.NewRecorder()
		inner.ServeHTTP(full, httptest.NewRequest(http.MethodGet, "/state", nil))
		f, err := wire.DecodeComponentFrame(full.Body.Bytes(), 1<<30)
		if err != nil {
			t.Error(err)
			return
		}
		base, _ := strconv.ParseUint(since, 10, 64)
		f.Delta, f.BaseVersion = true, base-1
		body, err := wire.EncodeComponentFrame(f)
		if err != nil {
			t.Error(err)
			return
		}
		w.Write(body)
	}))
	t.Cleanup(edgeTS.Close)
	coord := newTestCoordinator(t, p, "coord", edgeTS.URL)
	ins := coord.ins[edgeTS.URL]

	if err := ring.ConsumeBatch(reps[:100]); err != nil {
		t.Fatal(err)
	}
	forcePull(t, coord)
	if err := ring.ConsumeBatch(reps[100:]); err != nil {
		t.Fatal(err)
	}
	stale.Store(true)
	gets, full, delta := stateGets.Load(), ins.fullPulls.Value(), ins.deltaPulls.Value()
	forcePull(t, coord)
	if got := [3]uint64{uint64(stateGets.Load() - gets), ins.fullPulls.Value() - full, ins.deltaPulls.Value() - delta}; got != [3]uint64{2, 1, 0} {
		t.Fatalf("pull onto a stale delta base: %d GETs, %d full, %d delta; want the delta reply plus one full fetch", got[0], got[1], got[2])
	}
	if coord.f.N() != len(reps) {
		t.Fatalf("coordinator holds %d reports, %d were ingested", coord.f.N(), len(reps))
	}
}

// TestDecodeFaultIsPoisonAndQuarantines arms the cluster.pull.decode
// site: a frame that arrived but failed to decode is poison, and the
// third such pull in a row quarantines the peer while its last good
// contribution keeps serving. The next clean pull closes the breaker.
func TestDecodeFaultIsPoisonAndQuarantines(t *testing.T) {
	defer fault.Disarm()
	p, err := core.New(core.InpPS, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := makeReports(t, p, 200, 74)
	ring, edge := newTestEdge(t, p, "edge-1", window.Options{Shards: 2})
	edgeTS := httptest.NewServer(stateHandler(edge))
	t.Cleanup(edgeTS.Close)
	coord := newTestCoordinator(t, p, "coord", edgeTS.URL)
	if err := ring.ConsumeBatch(reps[:100]); err != nil {
		t.Fatal(err)
	}
	forcePull(t, coord)
	if err := ring.ConsumeBatch(reps[100:]); err != nil {
		t.Fatal(err)
	}

	fault.Arm(fault.Rule{Site: FaultDecode, Mode: fault.ModeError, Times: quarantineAfter})
	for i := 1; i <= quarantineAfter; i++ {
		coord.Round(context.Background(), true)
		peers, _ := coord.f.status()
		pe := peers[0]
		want := "backing_off"
		if i == quarantineAfter {
			want = "quarantined"
		}
		if pe.PoisonFailures != i || pe.Health != want || !strings.Contains(pe.LastError, FaultDecode) {
			t.Fatalf("after decode failure %d: %+v, want %d poison failures and %s", i, pe, i, want)
		}
		if coord.f.N() != 100 {
			t.Fatalf("after decode failure %d the coordinator holds %d reports, want the last good 100", i, coord.f.N())
		}
	}
	forcePull(t, coord)
	peers, _ := coord.f.status()
	if pe := peers[0]; pe.Health != "healthy" || pe.Quarantines != 1 || coord.f.N() != len(reps) {
		t.Fatalf("after a clean pull: %+v holding %d reports, want healthy, one trip and %d", pe, coord.f.N(), len(reps))
	}
}
