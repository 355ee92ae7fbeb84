package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ldpmarginals/internal/store"
)

// metric is one reported number with the spread of the samples behind
// it.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Min     float64
	Max     float64
	Samples int
}

// result is what one workload run reports.
type result struct {
	Workload  string
	Attempted int64
	Failed    int64
	Problems  []string
	Metrics   []metric
	Ungated   []metric // timed cells outside the reported list, for the human table
	Notes     []string // facts for the human table (data dir, bound served, ...)
}

// add reports value for the metric, with the range and number of the
// samples it was taken from.
func (r *result) add(name, unit string, value float64, samples []float64) {
	lo, hi := minMax(samples)
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, Min: lo, Max: hi, Samples: len(samples)})
}

// addMedian reports the median of the samples.
func (r *result) addMedian(name, unit string, samples ...float64) {
	r.add(name, unit, median(samples), samples)
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setup shuts the previous deployment down (so the process never holds
// two), then builds the workload's deployment from nothing and brings it
// to the state every round starts from: every generated body posted
// once in the population's order, the coordinator's first (full) pull,
// and the first refresh of every view. How long the building took is
// one more setup_s sample.
func (h *harness) setup(prev *deployment, dataDir string) (*deployment, error) {
	if prev != nil {
		dir := prev.dataDir
		if err := prev.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	h.cursor, h.shuffled = 0, false
	h.acked.Store(0)
	t0 := time.Now()
	d, err := h.deploy(dataDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for range h.w.bodies {
		h.postNext(d, 0)
	}
	_, _, h.firstPullBytes, _ = h.pull(0, "http.pull_full", d.coord.url)
	h.refresh(0, d.coord.url)
	if d.serving != d.coord {
		h.refresh(0, d.serving.url)
	}
	h.setups = append(h.setups, time.Since(t0).Seconds())
	return d, nil
}

// wireProbeCycles is how many one-body deltas the wire probe pulls.
const wireProbeCycles = 16

// wireProbe reads the delta pull's wire size where it repeats exactly:
// right after preload, before any concurrent phase has run. The server
// deals batches to shards round-robin in arrival order, so once two
// connections have raced, which shard holds which re-posted body — and
// with it how well each shard's counters compress — differs from run to
// run (three identical fleet-pull runs read 366, 379 and 457 KB per full
// pull in their timed rounds). The preload and these cycles are
// sequential and in the population's own order: body i always lands on
// shard i mod shards, whatever the seed. It returns the
// /state body bytes of each of wireProbeCycles pulls, each after one more
// body.
func (h *harness) wireProbe(d *deployment) []float64 {
	var sizes []float64
	for range wireProbeCycles {
		if !h.postNext(d, 0) {
			continue
		}
		if _, peerN, wire, ok := h.pull(0, "http.pull_delta", d.coord.url); ok {
			h.check(int64(peerN) == h.acked.Load(), "wire probe: coordinator holds %d reports, %d acked", peerN, h.acked.Load())
			sizes = append(sizes, float64(wire))
		}
	}
	return sizes
}

// roundSamples are one round's measurements, phase by phase.
type roundSamples struct {
	ingest, query float64         // acked reports, answered conjunctions per second
	fresh         freshSamples    // per-cycle timings
	full          []time.Duration // POST /pull on a fresh coordinator
	fullBytes     int64           // /state body bytes over all the full pulls
	spans         [4]time.Duration
}

// total is the length of the round's timed phases together.
func (rs roundSamples) total() time.Duration {
	return rs.spans[0] + rs.spans[1] + rs.spans[2] + rs.spans[3]
}

// round runs every phase once, with the garbage collected (untimed)
// before each, under an optional parent span.
func (h *harness) round(d *deployment, parent int) (rs roundSamples, err error) {
	h.shuffled = true
	rec := h.rec.Load()
	phase := func(name string) int {
		runtime.GC()
		return rec.begin(parent, name)
	}

	id := phase("phase.ingest")
	if h.aroundIngest != nil {
		h.aroundIngest(true)
	}
	var answers float64
	rs.ingest, answers, rs.spans[0] = h.ingestPhase(d, id)
	if h.aroundIngest != nil {
		h.aroundIngest(false)
	}
	rec.end(id, int64(h.w.ingestPosts), 0)
	if h.w.mixed {
		rs.query = answers
	} else {
		id = phase("phase.query")
		rs.query, rs.spans[1] = h.queryPhase(d, id)
		rec.end(id, int64(h.w.queryPosts), 0)
	}

	id = phase("phase.fresh")
	t0 := time.Now()
	rs.fresh = h.freshPhase(d, id)
	rs.spans[2] = time.Since(t0)
	rec.end(id, int64(h.w.freshCycles), rs.fresh.wireBytes)

	id = phase("phase.full")
	t0 = time.Now()
	rs.full, rs.fullBytes, err = h.fullPhase(d, id)
	rs.spans[3] = time.Since(t0)
	rec.end(id, int64(h.w.fullCycles), rs.fullBytes)
	return rs, err
}

// runWorkload executes one workload end to end in this process and
// returns its end-to-end metrics, or with traced set its per-layer
// ledger.
func runWorkload(w workload, seed uint64, traced bool, spanFile string) (*result, error) {
	res := &result{Workload: w.name}
	p, err := protocolFor(w)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	in, err := generate(p, w.bodies, w.batch, seed)
	if err != nil {
		return nil, err
	}
	res.note("inputs generated in %.2f s", time.Since(t0).Seconds())
	h := newHarness(w, p, in)
	defer h.close()

	dataRoot, err := newDataDir(w.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	res.note("data dir %s", dataRoot)

	// d is the one live deployment. Every set-up replaces it: the first
	// is for the correctness gate and the wire probe, and every round
	// starts from a fresh one, so that the set-ups are spread over the
	// whole run like every other timed sample and every round does the
	// same work on the same state.
	var d *deployment
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	setups := 0
	setup := func() error {
		prev := d
		d = nil
		setups++
		d, err = h.setup(prev, filepath.Join(dataRoot, strconv.Itoa(setups)))
		return err
	}
	if err := setup(); err != nil {
		return nil, err
	}

	// Correctness gate on the preloaded state.
	preloaded := int(h.acked.Load())
	ref, err := buildReference(p, in)
	if err != nil {
		return nil, fmt.Errorf("reference computation: %w", err)
	}
	tv := h.checkServed(d.serving, ref, preloaded)
	bound := h.checkBound(d.serving, tv)
	res.note("tv_error %.6g, served theoretical_tv %.6g, n %d", tv, bound, preloaded)
	if d.coord != d.serving {
		h.checkServed(d.coord, ref, preloaded)
	}

	deltaBytes := h.wireProbe(d)

	var ledger *layerLedger
	n := w.rounds
	if traced {
		ledger = newLayerLedger(h, res)
		n = untracedRounds
	}
	var all []roundSamples
	for range n {
		if err := setup(); err != nil {
			return nil, err
		}
		rs, err := h.round(d, 0)
		if err != nil {
			return nil, err
		}
		all = append(all, rs)
		if traced {
			ledger.calibrate()
		}
	}
	var phaseS [4]float64
	for _, rs := range all {
		for i, sp := range rs.spans {
			phaseS[i] += sp.Seconds() / float64(len(all))
		}
	}
	res.note("mean round: ingest %.2f s, query %.2f s, freshness %.2f s, full pulls %.2f s", phaseS[0], phaseS[1], phaseS[2], phaseS[3])
	if traced {
		if err := setup(); err != nil {
			return nil, err
		}
		if err := ledger.tracedRound(d, all); err != nil {
			return nil, err
		}
	}

	h.finalChecks(d)
	if w.durable {
		// Close, recover, compare: every acked report must come back.
		dir := d.ingest[0].srv.Store().Dir()
		if err := d.stop(); err != nil {
			return nil, err
		}
		d = nil
		st, err := store.Open(dir, p, store.Options{Fsync: store.FsyncInterval, SnapshotEveryN: 1 << 20})
		if err != nil {
			return nil, fmt.Errorf("reopening the store: %w", err)
		}
		recovered, stats := st.Recovered()
		h.check(recovered != nil && int64(recovered.N()) == h.acked.Load(),
			"recovery: %d reports came back, %d acked", stats.Reports, h.acked.Load())
		res.note("recovered %d of %d acked reports", stats.Reports, h.acked.Load())
		if err := st.Close(); err != nil {
			return nil, err
		}
	}

	if traced {
		if err := ledger.finish(spanFile); err != nil {
			return nil, err
		}
	} else {
		if err := endToEndMetrics(res, all, h.setups, tv, float64(h.firstPullBytes), deltaBytes); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed = h.attempted.Load(), h.failed.Load()
	res.Problems = h.problems
	return res, nil
}

// timedCell is one timed quantity of the rounds with its per-round
// values.
type timedCell struct {
	name, unit string
	perRound   []float64
}

// timedCells reduces the rounds to the timed quantities: a throughput
// is the phase's work over its span, a latency the p50 of the round's
// samples.
func timedCells(all []roundSamples) []timedCell {
	var ingest, query, refresh, rebuild, pullDelta, pullFull []float64
	p50 := func(dst *[]float64, samples []time.Duration) {
		// A short round can pass without a sample (the full rebuild comes
		// every 64th refresh); it then has no say in the median.
		if len(samples) > 0 {
			*dst = append(*dst, median(millis(samples)))
		}
	}
	for _, rs := range all {
		ingest = append(ingest, rs.ingest)
		query = append(query, rs.query)
		p50(&refresh, rs.fresh.refresh)
		p50(&rebuild, rs.fresh.rebuild)
		p50(&pullDelta, rs.fresh.pull)
		p50(&pullFull, rs.full)
	}
	return []timedCell{
		{"ingest_reports_per_s", "1/s", ingest},
		{"query_answers_per_s", "1/s", query},
		{"refresh_p50_ms", "ms", refresh},
		{"rebuild_p50_ms", "ms", rebuild},
		{"pull_delta_p50_ms", "ms", pullDelta},
		{"pull_full_p50_ms", "ms", pullFull},
	}
}

// endToEndMetrics reduces the run to the end-to-end metrics: setup_s is
// the median of the set-ups; the deterministic ones (wire bytes,
// tv_error) are read once, where they repeat exactly. The timed cells
// and the peak RSS (demoted, see workloads.go) go to the human table
// only, each as the median of its per-round values.
func endToEndMetrics(res *result, all []roundSamples, setups []float64, tv, fullBytes float64, deltaBytes []float64) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	res.addMedian("setup_s", "s", setups...)
	res.add("pull_delta_wire_bytes", "bytes", mean(deltaBytes), deltaBytes)
	res.addMedian("pull_full_wire_bytes", "bytes", fullBytes)
	res.addMedian("tv_error", "TV", tv)
	for _, c := range append(timedCells(all), timedCell{"peak_rss_mb", "MiB", []float64{rss}}) {
		lo, hi := minMax(c.perRound)
		res.Ungated = append(res.Ungated, metric{Name: c.name, Unit: c.unit, Value: median(c.perRound), Min: lo, Max: hi, Samples: len(c.perRound)})
	}
	return nil
}

// finalChecks holds the deployment's final counts against what was
// acked: every ingest node's /status n sums to it, and after one more
// pull and refresh the coordinator's view holds all of it.
func (h *harness) finalChecks(d *deployment) {
	acked := h.acked.Load()
	var sum int64
	for _, n := range d.ingest {
		if v, ok := h.statusN(n); ok {
			sum += int64(v)
		}
	}
	h.check(sum == acked, "final /status: nodes hold %d reports, %d acked", sum, acked)
	if _, peerN, _, ok := h.pull(0, "http.pull_delta", d.coord.url); ok {
		h.check(int64(peerN) == acked, "final pull: coordinator holds %d reports, %d acked", peerN, acked)
	}
	if vs, _, ok := h.refresh(0, d.coord.url); ok {
		h.check(int64(vs.ViewN) == acked, "final refresh: coordinator view_n %d, edges' sum %d", vs.ViewN, acked)
	}
}
