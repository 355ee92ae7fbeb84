package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/consistency"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/hadamard"
	"ldpmarginals/internal/privacy"
	"ldpmarginals/internal/query"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/view"
	"ldpmarginals/internal/window"
	"ldpmarginals/internal/wire"
)

// untracedRounds is how many ordinary rounds a traced run times
// before its one traced round; their median is what trace_overhead_pct
// compares the traced round against.
const untracedRounds = 3

// pacedRate is the open-loop phase's request rate.
const pacedRate = 2000

// layerLedger fills a traced run's per-layer metrics. Every number is
// timed from outside: a span around an HTTP call the harness makes, or
// around a direct call into a layer's public function over the
// workload's generated inputs. Nothing inside the program is
// instrumented.
type layerLedger struct {
	h   *harness
	d   *deployment
	res *result
	rec *recorder
	cfg core.Config

	calib []float64 // host calibration loop, ms per round

	// err is the first error a timed layer call returned. A layer that
	// starts failing must fail the run, not have the cost of its error
	// path reported as the layer's number.
	err error

	// Layer costs other rows are derived from (ns per report).
	decodeNs, consumeNs, appendNs float64
	decodeFullMs                  float64
}

func newLayerLedger(h *harness, res *result) *layerLedger {
	return &layerLedger{h: h, res: res, rec: newRecorder(h.w.name), cfg: h.p.Config()}
}

// ok notes err if it is the first a timed call returned.
func (l *layerLedger) ok(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// timed runs fn reps times, each inside its own span, and returns the
// median duration of one run in nanoseconds. fn returns how many
// operations and bytes the run covered (recorded on the span).
func (l *layerLedger) timed(name string, reps int, fn func() (count, bytes int64)) float64 {
	return l.timedAfter(name, reps, nil, fn)
}

// timedAfter is timed with an untimed prepare step before every run.
func (l *layerLedger) timedAfter(name string, reps int, prepare func(), fn func() (count, bytes int64)) float64 {
	ns := make([]float64, 0, reps)
	for range reps {
		if prepare != nil {
			prepare()
		}
		id := l.rec.begin(0, name)
		count, bytes := fn()
		ns = append(ns, float64(l.rec.end(id, count, bytes).Nanoseconds()))
	}
	return median(ns)
}

// calibrate times a fixed integer loop: the same work every round, so a
// round disturbed by the host shows as a different reading.
func (l *layerLedger) calibrate() {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for range 20_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink.Store(x)
	l.calib = append(l.calib, float64(time.Since(t0).Nanoseconds())/1e6)
}

// calibSink keeps the calibration loop's result alive.
var calibSink atomic.Uint64

// tracedRound runs one more round on the fresh deployment d with the
// span recorder on, then every direct layer measurement, and fills the
// ledger.
func (l *layerLedger) tracedRound(d *deployment, untraced []roundSamples) error {
	h := l.h
	l.d = d

	// The traced round: same phases, recorder on, process counters read
	// around the ingest phase.
	goroutines := sampleGoroutines()
	h.rec.Store(l.rec)
	root := l.rec.begin(0, "round.traced")
	traced, usage, err := l.roundWithUsage(root)
	l.rec.end(root, 1, 0)
	peak := goroutines()
	if err != nil {
		h.rec.Store(nil)
		return err
	}
	// Read before the direct layer calls below allocate their own state.
	rss, err := peakRSSMiB()
	if err != nil {
		h.rec.Store(nil)
		return err
	}

	var base []float64
	for _, rs := range untraced {
		base = append(base, rs.total().Seconds())
	}
	l.res.addMedian("trace_overhead_pct", "%", 100*(traced.total().Seconds()-median(base))/median(base))

	l.mechEncoding()
	if err := l.coreLayers(); err != nil {
		return err
	}
	if err := l.storeLayer(); err != nil {
		return err
	}
	if err := l.windowPrivacy(); err != nil {
		return err
	}
	if err := l.serverLayer(); err != nil {
		return err
	}
	h.rec.Store(nil)
	if l.err != nil {
		return fmt.Errorf("timed layer call: %w", l.err)
	}
	l.calibrate()
	l.rec.selfTimes()

	// Rows read off the traced round's spans.
	ack := l.rec.durations("http.report_batch", "phase.ingest")
	l.res.addMedian("server.ingest_ack_p50_us", "us", quantile(ack, 0.5)/1e3)
	l.res.addMedian("server.ingest_ack_p99_us", "us", quantile(ack, 0.99)/1e3)
	l.res.addMedian("server.query_req_us", "us", median(l.rec.durations("http.query", ""))/1e3)
	// The timed cells (demoted from the end-to-end list, see
	// workloads.go), each as the median of this run's rounds.
	for _, c := range timedCells(append(untraced, traced)) {
		l.res.addMedian("server."+c.name, c.unit, c.perRound...)
	}
	// The fastest sample of what the timed cells report the median of, over every cycle of this run's rounds: what the operation costs
	// when the host leaves it alone.
	var (
		refresh, rebuild, pullDelta, pullFull []time.Duration
		deltaBytes, fullBytes                 int64
	)
	for _, rs := range append(untraced, traced) {
		refresh = append(refresh, rs.fresh.refresh...)
		rebuild = append(rebuild, rs.fresh.rebuild...)
		pullDelta = append(pullDelta, rs.fresh.pull...)
		pullFull = append(pullFull, rs.full...)
		deltaBytes += rs.fresh.wireBytes
		fullBytes += rs.fullBytes
	}
	fastest := func(name string, samples []time.Duration) {
		lo, _ := minMax(millis(samples))
		l.res.add(name, "ms", lo, millis(samples))
	}
	fastest("server.refresh_min_ms", refresh)
	fastest("server.rebuild_min_ms", rebuild)
	fastest("server.pull_delta_min_ms", pullDelta)
	fastest("server.pull_full_min_ms", pullFull)
	// The wire sizes of the timed rounds, which unlike the gated probe's
	// depend on how the concurrent phases happened to deal bodies to
	// shards.
	l.res.addMedian("server.pull_delta_round_bytes", "bytes", float64(deltaBytes)/float64(max(1, len(pullDelta))))
	l.res.addMedian("server.pull_full_round_bytes", "bytes", float64(fullBytes)/float64(max(1, len(pullFull))))
	l.res.addMedian("view.snapshot_ms", "ms", traced.fresh.snapshot...)
	// The coordinator-side share of a cold pull: the POST /pull span minus
	// the /state replies under it, minus decoding the frame.
	l.res.addMedian("server.pull_fold_ms", "ms", median(l.rec.selfByName("http.pull_full"))/1e6-l.decodeFullMs)
	perRequest := float64(h.in.Batch) * (l.decodeNs + l.consumeNs + l.appendNs) / 1e3
	l.res.addMedian("server.unattributed_us_per_request", "us", quantile(ack, 0.5)/1e3-perRequest)

	reports := float64(usage.reports)
	l.res.addMedian("process.cpu_ns_per_report", "ns", float64(usage.cpu.Nanoseconds())/reports)
	l.res.addMedian("process.heap_alloc_bytes_per_report", "bytes", float64(usage.heapBytes)/reports)
	l.res.addMedian("process.gc_pause_total_ms", "ms", float64(usage.gcPauseNs)/1e6)
	l.res.addMedian("process.goroutines_peak", "count", float64(peak))
	l.res.addMedian("process.peak_rss_mb", "MiB", rss)
	l.res.addMedian("host.calib_ms", "ms", l.calib...)
	lo, hi := minMax(l.calib)
	l.res.addMedian("host.calib_spread_pct", "%", 100*(hi-lo)/median(l.calib))
	return nil
}

// phaseUsage is what the process spent over the traced ingest phase.
type phaseUsage struct {
	reports   int64
	cpu       time.Duration
	heapBytes uint64
	gcPauseNs uint64
}

// roundWithUsage is harness.round with getrusage and MemStats read
// around the ingest phase.
func (l *layerLedger) roundWithUsage(parent int) (roundSamples, phaseUsage, error) {
	var (
		u      phaseUsage
		m0, m1 runtime.MemStats
	)
	l.h.aroundIngest = func(start bool) {
		if start {
			runtime.ReadMemStats(&m0)
			var err error
			u.cpu, err = cpuTime()
			l.ok(err)
			u.reports = l.h.acked.Load()
			return
		}
		end, err := cpuTime()
		l.ok(err)
		u.cpu = end - u.cpu
		u.reports = l.h.acked.Load() - u.reports
		runtime.ReadMemStats(&m1)
	}
	rs, err := l.h.round(l.d, parent)
	l.h.aroundIngest = nil
	u.heapBytes = m1.TotalAlloc - m0.TotalAlloc
	u.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return rs, u, err
}

// sampleGoroutines polls the goroutine count until the returned
// function is called, which stops the poller and reports the peak.
func sampleGoroutines() (stop func() int) {
	var (
		peak atomic.Int64
		done = make(chan struct{})
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return int(peak.Load())
	}
}

// decodedBodies decodes the first n generated bodies into report
// chunks.
func (l *layerLedger) decodedBodies(n int) ([][]core.Report, error) {
	n = min(n, len(l.h.in.Bodies))
	out := make([][]core.Report, n)
	for i := range out {
		_, reps, err := encoding.UnmarshalBatch(l.h.in.Bodies[i], 0)
		if err != nil {
			return nil, err
		}
		out[i] = reps
	}
	return out, nil
}

// mechEncoding times the client side and the wire codec: Perturb, the
// frame size (Table 2's message size), and batch decode.
func (l *layerLedger) mechEncoding() {
	h := l.h
	client := h.p.NewClient()
	r := rng.New(1)
	records := h.in.Sample
	reps := make([]core.Report, len(records))
	perRun := l.timed("mech.Perturb", 5, func() (int64, int64) {
		for i, rec := range records {
			var err error
			reps[i], err = client.Perturb(rec, r)
			l.ok(err)
		}
		return int64(len(records)), 0
	})
	l.res.addMedian("mech.perturb_ns_per_report", "ns", perRun/float64(len(records)))

	var frameBytes int
	for _, rep := range reps {
		frame, err := encoding.Marshal(h.p.Name(), rep)
		if err != nil {
			h.check(false, "encoding.Marshal: %v", err)
			break
		}
		frameBytes += len(frame)
	}
	l.res.addMedian("encoding.report_bytes", "bytes", float64(frameBytes)/float64(len(reps)))

	bodies := h.in.Bodies[:min(256, len(h.in.Bodies))]
	var (
		repBuf []core.Report
		ends   []int
		m0, m1 runtime.MemStats
	)
	const decodeReps = 7
	runtime.ReadMemStats(&m0)
	perRun = l.timed("encoding.UnmarshalBatchEndsInto", decodeReps, func() (int64, int64) {
		var bytes int64
		for _, body := range bodies {
			var err error
			_, repBuf, ends, err = encoding.UnmarshalBatchEndsInto(body, 0, repBuf, ends)
			l.ok(err)
			bytes += int64(len(body))
		}
		return int64(len(bodies) * h.in.Batch), bytes
	})
	runtime.ReadMemStats(&m1)
	l.decodeNs = perRun / float64(len(bodies)*h.in.Batch)
	l.res.addMedian("encoding.decode_ns_per_report", "ns", l.decodeNs)
	l.res.addMedian("encoding.decode_allocs_per_batch", "count", float64(m1.Mallocs-m0.Mallocs)/float64(decodeReps*len(bodies)))
}

// consumeChunk is the batch size the consume rows feed ConsumeBatch
// with: the server's per-shard-lock chunk.
const consumeChunk = 1024

// consumeRows times ConsumeBatch for all six protocols: the workload's
// at its own (d, k), the other five at d=8 k=2 as the refactor guard.
func (l *layerLedger) consumeRows() error {
	h, cfg := l.h, l.cfg
	for _, kind := range core.AllKinds() {
		kcfg := core.Config{D: 8, K: 2, Epsilon: cfg.Epsilon, OptimizedPRR: true}
		if kind == h.w.kind {
			kcfg = cfg
		}
		kp, err := core.New(kind, kcfg)
		if err != nil {
			return err
		}
		client := kp.NewClient()
		r := rng.New(2)
		src := rand.New(rand.NewSource(2))
		zipf := rand.NewZipf(src, zipfExponent, 1, uint64(1)<<kcfg.D-1)
		chunks := make([][]core.Report, 16)
		for i := range chunks {
			chunks[i] = make([]core.Report, consumeChunk)
			for j := range chunks[i] {
				if chunks[i][j], err = client.Perturb(zipf.Uint64(), r); err != nil {
					return err
				}
			}
		}
		agg := core.NewSharded(kp, h.w.shards)
		perRun := l.timed("core.ConsumeBatch."+kind.String(), 7, func() (int64, int64) {
			for _, c := range chunks {
				l.ok(agg.ConsumeBatch(c))
			}
			return int64(len(chunks) * consumeChunk), 0
		})
		ns := perRun / float64(len(chunks)*consumeChunk)
		if kind == h.w.kind {
			l.consumeNs = ns
		}
		l.res.addMedian("core.consume_ns_per_report."+kind.String(), "ns", ns)
	}
	return nil
}

// pipelineBodies is how many generated bodies the ledger's own
// aggregation state holds: enough to fill every counter, few enough to
// keep decoded in memory.
const pipelineBodies = 512

// pipeline is the ledger's own aggregation state: a sharded aggregator
// fed the first pipelineBodies generated bodies, a snapshot of it, and the reconstruction
// arena — what the direct layer calls run over.
type pipeline struct {
	l      *layerLedger
	agg    *core.ShardedAggregator
	snap   core.Aggregator
	kway   *core.KWayArena
	chunks [][]core.Report
	next   int
}

// oneMoreBody consumes the next body: one shard moves.
func (pp *pipeline) oneMoreBody() {
	pp.l.ok(pp.agg.ConsumeBatch(pp.chunks[pp.next%len(pp.chunks)]))
	pp.next++
}

// coreLayers times everything between a consumed report and a served
// answer by direct calls: the state machinery, the refresh kernels, the
// view and query reads, and the exchange codec.
func (l *layerLedger) coreLayers() error {
	if err := l.consumeRows(); err != nil {
		return err
	}
	chunks, err := l.decodedBodies(pipelineBodies)
	if err != nil {
		return err
	}
	pp := &pipeline{l: l, agg: core.NewSharded(l.h.p, l.h.w.shards), chunks: chunks}
	for _, c := range chunks {
		if err := pp.agg.ConsumeBatch(c); err != nil {
			return err
		}
	}
	if pp.kway, err = core.NewKWayArena(l.cfg); err != nil {
		return err
	}
	if err := l.stateRows(pp); err != nil {
		return err
	}
	l.kernelRows(pp)
	if err := l.viewRows(pp); err != nil {
		return err
	}
	return l.wireLayer(pp)
}

// stateRows times the counter-state operations: snapshots, the state
// codec, shard export, merge and unmerge.
func (l *layerLedger) stateRows(pp *pipeline) error {
	p, agg, oneMoreBody := l.h.p, pp.agg, pp.oneMoreBody
	var (
		snap core.Aggregator
		err  error
	)
	l.res.addMedian("core.snapshot_full_us", "us", l.timed("core.Snapshot", 9, func() (int64, int64) {
		snap, err = agg.Snapshot()
		l.ok(err)
		return 1, 0
	})/1e3)
	if arena := agg.NewSnapshotArena(); arena != nil {
		if _, err := agg.SnapshotDeltaInto(arena); err != nil {
			return err
		}
		l.res.addMedian("core.snapshot_delta_us", "us", l.timedAfter("core.SnapshotDeltaInto", 15, oneMoreBody, func() (int64, int64) {
			touched, err := agg.SnapshotDeltaInto(arena)
			l.ok(err)
			return int64(touched), 0
		})/1e3)
	}
	if snap, err = agg.Snapshot(); err != nil {
		return err
	}

	var blob []byte
	l.res.addMedian("core.marshal_state_us", "us", l.timed("core.MarshalState", 9, func() (int64, int64) {
		blob, err = snap.MarshalState()
		l.ok(err)
		return 1, int64(len(blob))
	})/1e3)
	// A fresh aggregator every time: that is what a decoder of a peer's
	// state holds.
	var probe core.Aggregator
	l.res.addMedian("core.unmarshal_state_us", "us", l.timedAfter("core.UnmarshalState", 9, func() { probe = p.NewAggregator() }, func() (int64, int64) {
		l.ok(probe.UnmarshalState(blob))
		return 1, int64(len(blob))
	})/1e3)
	var exports []core.ShardExport
	l.res.addMedian("core.export_shards_us", "us", l.timed("core.ExportShards", 9, func() (int64, int64) {
		exports, _, err = agg.ExportShards()
		l.ok(err)
		return int64(len(exports)), 0
	})/1e3)
	dst := p.NewAggregator()
	l.res.addMedian("core.merge_us", "us", l.timed("core.MergeAggregators", 9, func() (int64, int64) {
		l.ok(core.MergeAggregators(dst, snap))
		return 1, 0
	})/1e3)
	l.res.addMedian("core.unmerge_us", "us", l.timed("core.UnmergeAggregators", 9, func() (int64, int64) {
		l.ok(core.UnmergeAggregators(dst, snap))
		return 1, 0
	})/1e3)

	pp.snap = snap
	return nil
}

// kernelRows times what a refresh is made of: k-way reconstruction, the
// full-domain transform and the per-table inverse, and consistency over
// the workload's C(d,k) tables.
func (l *layerLedger) kernelRows(pp *pipeline) {
	cfg, snap, kway := l.cfg, pp.snap, pp.kway
	l.res.addMedian("core.kway_tables_us", "us", l.timed("core.AllKWayTablesInto", 9, func() (int64, int64) {
		l.ok(core.AllKWayTablesInto(snap, kway, true))
		return int64(len(kway.Masks)), 0
	})/1e3)

	vec := make([]float64, 1<<cfg.D)
	refill := func() {
		for i := range vec {
			vec[i] = float64(i & 7)
		}
	}
	l.res.addMedian("hadamard.wht_us", "us", l.timedAfter("hadamard.WHT", 9, refill, func() (int64, int64) {
		l.ok(hadamard.WHT(vec))
		return 1, int64(8 * len(vec))
	})/1e3)
	coeffs := hadamard.MapSource{}
	for _, alpha := range hadamard.CoefficientSet(cfg.D, cfg.K) {
		coeffs[alpha] = 1 / float64(alpha+1)
	}
	cells := make([]float64, 1<<cfg.K)
	perRun := l.timed("hadamard.ReconstructMarginalInto", 9, func() (int64, int64) {
		for _, beta := range kway.Masks {
			hadamard.ReconstructMarginalInto(cells, coeffs, beta)
		}
		return int64(len(kway.Masks)), 0
	})
	l.res.addMedian("hadamard.reconstruct_ns_per_table", "ns", perRun/float64(len(kway.Masks)))

	var plan *consistency.Plan
	l.res.addMedian("consistency.plan_ms", "ms", l.timed("consistency.NewPlan", 3, func() (int64, int64) {
		var err error
		plan, err = consistency.NewPlan(kway.Masks)
		l.ok(err)
		return int64(len(kway.Masks)), 0
	})/1e6)
	weights := make([]float64, len(kway.Users))
	reconstruct := func() {
		l.ok(core.AllKWayTablesInto(snap, kway, true))
		for i, u := range kway.Users {
			weights[i] = float64(u)
		}
	}
	l.res.addMedian("consistency.enforce_ms", "ms", l.timedAfter("consistency.Plan.Enforce", 7, reconstruct, func() (int64, int64) {
		l.ok(plan.Enforce(kway.Tables, weights, consistency.Options{}))
		return int64(len(kway.Tables)), 0
	})/1e6)

}

// viewRows times the view engine — cold build, incremental and no-op
// refresh — and the reads a query is made of.
func (l *layerLedger) viewRows(pp *pipeline) error {
	h, p, cfg := l.h, l.h.p, l.cfg
	agg, snap, kway, oneMoreBody := pp.agg, pp.snap, pp.kway, pp.oneMoreBody
	l.res.addMedian("view.build_cold_ms", "ms", l.timed("view.Build", 3, func() (int64, int64) {
		_, err := view.Build(snap, p, view.Options{})
		l.ok(err)
		return 1, 0
	})/1e6)
	eng, err := view.NewEngine(agg, p, view.EngineOptions{})
	if err != nil {
		return err
	}
	defer eng.Close()
	l.res.addMedian("view.refresh_incremental_ms", "ms", l.timedAfter("view.Engine.Refresh", 15, oneMoreBody, func() (int64, int64) {
		_, err := eng.Refresh()
		l.ok(err)
		return 1, 0
	})/1e6)
	l.res.addMedian("view.refresh_noop_us", "us", l.timed("view.Engine.Refresh.noop", 15, func() (int64, int64) {
		_, err := eng.Refresh()
		l.ok(err)
		return 1, 0
	})/1e3)
	v := eng.Current()
	perRun := l.timed("view.View.Marginal", 9, func() (int64, int64) {
		for _, beta := range kway.Masks {
			_, err := v.Marginal(beta)
			l.ok(err)
		}
		return int64(len(kway.Masks)), 0
	})
	l.res.addMedian("view.marginal_ns", "ns", perRun/float64(len(kway.Masks)))
	l.res.addMedian("view.tables", "count", float64(v.Tables()))

	var (
		strs  []string
		conjs []query.Conjunction
	)
	for _, qs := range h.in.QueryStrings {
		strs = append(strs, qs...)
	}
	perRun = l.timed("query.Parse", 9, func() (int64, int64) {
		conjs = conjs[:0]
		for _, s := range strs {
			c, err := query.Parse(s, nil)
			l.ok(err)
			conjs = append(conjs, c)
		}
		return int64(len(strs)), 0
	})
	l.res.addMedian("query.parse_ns", "ns", perRun/float64(len(strs)))
	perRun = l.timed("query.EvaluateStrings", 9, func() (int64, int64) {
		for _, r := range query.EvaluateStrings(v, cfg.D, nil, strs) {
			l.ok(r.Err)
		}
		return int64(len(strs)), 0
	})
	l.res.addMedian("query.evaluate_ns", "ns", perRun/float64(len(strs)))
	perRun = l.timed("view.View.Answer", 9, func() (int64, int64) {
		for _, c := range conjs {
			_, err := v.Answer(c)
			l.ok(err)
		}
		return int64(len(conjs)), 0
	})
	l.res.addMedian("view.answer_ns", "ns", perRun/float64(len(conjs)))

	return nil
}

// wireLayer times the state-exchange codec over the aggregator's shard
// exports: the componentized full frame, a one-shard delta frame, and
// the legacy single-blob frame.
func (l *layerLedger) wireLayer(pp *pipeline) error {
	agg, snap, oneMoreBody := pp.agg, pp.snap, pp.oneMoreBody
	frameOf := func(exports []core.ShardExport) wire.ComponentFrame {
		f := wire.ComponentFrame{NodeID: "ledger", Version: 1}
		for _, e := range exports {
			f.Components = append(f.Components, wire.StateComponent{
				ID: "ledger/" + strconv.Itoa(e.Index), Version: e.Version, N: e.N, State: e.State,
			})
			f.N += e.N
		}
		wire.SortComponents(f.Components)
		return f
	}
	before, _, err := agg.ExportShards()
	if err != nil {
		return err
	}
	full := frameOf(before)
	var rawBytes int
	for _, c := range full.Components {
		rawBytes += len(c.State)
	}
	var buf []byte
	l.res.addMedian("wire.encode_full_ms", "ms", l.timed("wire.EncodeComponentFrame.full", 5, func() (int64, int64) {
		buf, err = wire.EncodeComponentFrame(full)
		return int64(len(full.Components)), int64(len(buf))
	})/1e6)
	if err != nil {
		return err
	}
	l.decodeFullMs = l.timed("wire.DecodeComponentFrame.full", 5, func() (int64, int64) {
		_, err = wire.DecodeComponentFrame(buf, 1<<30)
		return int64(len(full.Components)), int64(len(buf))
	}) / 1e6
	if err != nil {
		return err
	}
	l.res.addMedian("wire.decode_full_ms", "ms", l.decodeFullMs)
	l.res.addMedian("wire.full_bytes", "bytes", float64(len(buf)))
	l.res.addMedian("wire.compress_ratio", "x", float64(rawBytes)/float64(len(buf)))

	// One body moves one shard; the delta frame ships just that shard.
	oneMoreBody()
	after, _, err := agg.ExportShards()
	if err != nil {
		return err
	}
	var moved []core.ShardExport
	for i, e := range after {
		if i >= len(before) || e.Version != before[i].Version {
			moved = append(moved, e)
		}
	}
	delta := frameOf(moved)
	delta.Delta, delta.BaseVersion, delta.Version, delta.N = true, 1, 2, agg.N()
	l.res.addMedian("wire.encode_delta_us", "us", l.timed("wire.EncodeComponentFrame.delta", 9, func() (int64, int64) {
		buf, err = wire.EncodeComponentFrame(delta)
		return int64(len(delta.Components)), int64(len(buf))
	})/1e3)
	if err != nil {
		return err
	}
	l.res.addMedian("wire.decode_delta_us", "us", l.timed("wire.DecodeComponentFrame.delta", 9, func() (int64, int64) {
		_, err = wire.DecodeComponentFrame(buf, 1<<30)
		return int64(len(delta.Components)), int64(len(buf))
	})/1e3)
	if err != nil {
		return err
	}
	l.res.addMedian("wire.delta_bytes", "bytes", float64(len(buf)))

	blob, err := snap.MarshalState()
	if err != nil {
		return err
	}
	l.res.addMedian("wire.legacy_encode_us", "us", l.timed("wire.EncodeStateFrame", 9, func() (int64, int64) {
		buf, err = wire.EncodeStateFrame(wire.StateFrame{NodeID: "ledger", Version: 1, N: snap.N(), State: blob})
		return 1, int64(len(buf))
	})/1e3)
	if err != nil {
		return err
	}
	l.res.addMedian("wire.legacy_bytes", "bytes", float64(len(buf)))
	return nil
}

// storeLayer times the durable store directly: appends under both
// fsync policies with a no-op apply, compaction, rotation, recovery.
func (l *layerLedger) storeLayer() error {
	h, p := l.h, l.h.p
	bodies := h.in.Bodies[:min(2048, len(h.in.Bodies))]
	dir := filepath.Join(l.d.dataDir, "ledger-store")
	defer os.RemoveAll(dir)

	st, err := store.Open(filepath.Join(dir, "interval"), p, store.Options{Fsync: store.FsyncInterval})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			st.Close()
		}
	}()
	appendAll := func(s *store.Store, bodies [][]byte) error {
		for _, body := range bodies {
			if err := s.Ingest(body, func() (int, int, error) { return h.in.Batch, len(body), nil }); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := st.Rotate(); err != nil {
		return err
	}
	walBefore := st.Status().WALBytes
	var ingestErr error
	const appendReps = 5
	perRun := l.timed("store.Ingest.interval", appendReps, func() (int64, int64) {
		if err := appendAll(st, bodies); err != nil {
			ingestErr = err
		}
		return int64(len(bodies) * h.in.Batch), 0
	})
	if ingestErr != nil {
		return ingestErr
	}
	if _, err := st.Rotate(); err != nil {
		return err
	}
	appended := float64(appendReps * len(bodies) * h.in.Batch)
	l.appendNs = 0
	appendNs := perRun / float64(len(bodies)*h.in.Batch)
	if h.w.durable {
		l.appendNs = appendNs
	}
	l.res.addMedian("store.append_ns_per_report", "ns", appendNs)
	l.res.addMedian("store.append_bytes_per_report", "bytes", float64(st.Status().WALBytes-walBefore)/appended)

	// Compaction reads the state through a source; give it the reports
	// the log now holds.
	agg := core.NewSharded(p, h.w.shards)
	chunks, err := l.decodedBodies(len(bodies))
	if err != nil {
		return err
	}
	for range appendReps {
		for _, c := range chunks {
			if err := agg.ConsumeBatch(c); err != nil {
				return err
			}
		}
	}
	st.SetSource(agg.Snapshot)
	var opErr error
	// One more body before every compaction: a snapshot with nothing new
	// behind it is skipped.
	const snapshotReps = 3
	oneMoreBody := func() {
		if err := appendAll(st, bodies[:1]); err != nil {
			opErr = err
		}
		if err := agg.ConsumeBatch(chunks[0]); err != nil {
			opErr = err
		}
	}
	l.res.addMedian("store.snapshot_ms", "ms", l.timedAfter("store.Snapshot", snapshotReps, oneMoreBody, func() (int64, int64) {
		if err := st.Snapshot(); err != nil {
			opErr = err
		}
		return 1, 0
	})/1e6)
	l.res.addMedian("store.rotate_us", "us", l.timed("store.Rotate", 5, func() (int64, int64) {
		if _, err := st.Rotate(); err != nil {
			opErr = err
		}
		return 1, 0
	})/1e3)
	if opErr != nil {
		return opErr
	}

	// Recovery of a snapshot plus a log tail: append once more, then
	// close without a final snapshot so the tail must be replayed.
	if err := appendAll(st, bodies); err != nil {
		return err
	}
	st.SetSource(nil)
	closed = true
	if err := st.Close(); err != nil {
		return err
	}
	var recoveredN int
	l.res.addMedian("store.recover_ms", "ms", l.timed("store.Open.recover", 1, func() (int64, int64) {
		re, err := store.Open(filepath.Join(dir, "interval"), p, store.Options{Fsync: store.FsyncInterval})
		if err != nil {
			opErr = err
			return 0, 0
		}
		_, stats := re.Recovered()
		recoveredN = stats.Reports
		opErr = re.Close()
		return int64(recoveredN), 0
	})/1e6)
	if opErr != nil {
		return opErr
	}
	want := ((appendReps+1)*len(bodies) + snapshotReps) * h.in.Batch
	h.check(recoveredN == want, "ledger store recovery: %d reports came back, %d appended", recoveredN, want)
	l.res.addMedian("store.recover_reports", "count", float64(recoveredN))

	always, err := store.Open(filepath.Join(dir, "always"), p, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		return err
	}
	defer always.Close()
	i := 0
	l.res.addMedian("store.append_always_us_per_batch", "us", l.timed("store.Ingest.always", 50, func() (int64, int64) {
		body := bodies[i%len(bodies)]
		i++
		if err := appendAll(always, [][]byte{body}); err != nil {
			opErr = err
		}
		return int64(h.in.Batch), int64(len(body))
	})/1e3)
	return opErr
}

// windowPrivacy times the continual-release ring under a synthetic
// clock, and the per-token budget ledger. No workload deploys them
// (wall-clock rotation would break fixed work); the rows exist so a
// change to either has a before and an after.
func (l *layerLedger) windowPrivacy() error {
	h, p := l.h, l.h.p
	const buckets = 8
	start := time.Unix(1_700_000_000, 0)
	ring, err := window.NewRing(p, window.Options{
		Window: buckets * time.Second, Bucket: time.Second, Shards: h.w.shards, Start: start,
	})
	if err != nil {
		return err
	}
	chunks, err := l.decodedBodies(64)
	if err != nil {
		return err
	}
	var reports int
	for _, c := range chunks {
		reports += len(c)
	}
	perRun := l.timed("window.Ring.ConsumeBatch", 7, func() (int64, int64) {
		for _, c := range chunks {
			l.ok(ring.ConsumeBatch(c))
		}
		return int64(reports), 0
	})
	l.res.addMedian("window.consume_ns_per_report", "ns", perRun/float64(reports))

	// Advance one bucket at a time: the first buckets-1 boundaries only
	// seal; from then on every boundary also expires the oldest bucket.
	var seal, expire []float64
	now := start
	for i := range 2*buckets - 1 {
		if err := ring.ConsumeBatch(chunks[i%len(chunks)]); err != nil {
			return err
		}
		now = now.Add(time.Second)
		name := "window.Ring.Advance.seal"
		if i >= buckets-1 {
			name = "window.Ring.Advance.expire"
		}
		id := l.rec.begin(0, name)
		rotated, expired, err := ring.Advance(now)
		dur := float64(l.rec.end(id, int64(rotated), 0).Nanoseconds())
		if err != nil {
			return err
		}
		if expired > 0 {
			expire = append(expire, dur)
		} else {
			seal = append(seal, dur)
		}
	}
	l.res.addMedian("window.seal_us", "us", median(seal)/1e3)
	l.res.addMedian("window.expire_us", "us", median(expire)/1e3)
	l.res.addMedian("window.snapshot_us", "us", l.timed("window.Ring.Snapshot", 9, func() (int64, int64) {
		_, err := ring.Snapshot()
		l.ok(err)
		return 1, 0
	})/1e3)

	ledger, err := privacy.NewLedger(math.MaxFloat32, l.cfg.Epsilon, buckets)
	if err != nil {
		return err
	}
	tokens := make([]string, 1024)
	for i := range tokens {
		tokens[i] = "client-" + strconv.Itoa(i)
	}
	perRun = l.timed("privacy.Ledger.Charge", 9, func() (int64, int64) {
		for _, t := range tokens {
			l.ok(ledger.Charge(t, h.in.Batch))
		}
		return int64(len(tokens)), 0
	})
	l.res.addMedian("privacy.ledger_charge_ns", "ns", perRun/float64(len(tokens)))
	return nil
}

// serverLayer times single HTTP requests against the live deployment:
// the fixed cost of a request, the per-report slope, the read
// endpoints, the three shapes of GET /state, and an open-loop run.
func (l *layerLedger) serverLayer() error {
	h, d := l.h, l.d
	node := d.ingest[0]

	// A one-report batch, a 1,024-report batch (bodies are concatenated
	// length-prefixed frames, so whole bodies concatenate), one frame.
	_, first, err := encoding.UnmarshalBatch(h.in.Bodies[0], 0)
	if err != nil {
		return err
	}
	one, err := encoding.MarshalBatch(h.p.Name(), first[:1])
	if err != nil {
		return err
	}
	frame, err := encoding.Marshal(h.p.Name(), first[0])
	if err != nil {
		return err
	}
	var (
		big        []byte
		bigReports int
	)
	for i := 0; bigReports < consumeChunk; i++ {
		big = append(big, h.in.Bodies[i%len(h.in.Bodies)]...)
		bigReports += h.in.Batch
	}

	post := func(name, path string, body []byte, reports, want int) float64 {
		var us []float64
		for range 300 {
			_, dur, ok := h.call(0, 0, name, http.MethodPost, node.url+path, body, want)
			if ok {
				h.acked.Add(int64(reports))
				us = append(us, float64(dur.Nanoseconds())/1e3)
			}
		}
		return median(us)
	}
	fixed := post("http.report_batch.1", "/report/batch", one, 1, http.StatusOK)
	bigUs := post("http.report_batch.1024", "/report/batch", big, bigReports, http.StatusOK)
	l.res.addMedian("server.request_fixed_us", "us", fixed)
	l.res.addMedian("server.batch_marginal_ns_per_report", "ns", 1e3*(bigUs-fixed)/float64(bigReports-1))
	l.res.addMedian("server.single_report_us", "us", post("http.report", "/report", frame, 1, http.StatusNoContent))

	get := func(name, url string, reps, want int) float64 {
		var us []float64
		for range reps {
			if _, dur, ok := h.call(0, 0, name, http.MethodGet, url, nil, want); ok {
				us = append(us, float64(dur.Nanoseconds())/1e3)
			}
		}
		return median(us)
	}
	beta := core.KWayMasks(l.cfg.D, l.cfg.K)[0]
	l.res.addMedian("server.marginal_get_us", "us", get("http.marginal", d.serving.url+"/marginal?beta="+strconv.FormatUint(beta, 10), 300, http.StatusOK))
	l.res.addMedian("server.metrics_scrape_us", "us", get("http.metrics", node.url+"/metrics", 50, http.StatusOK))

	// GET /state: cold (full frame), after one shard moved (delta against
	// the previous export), and unchanged (304).
	stateURL := node.url + "/state?components=1"
	etag := func() (string, error) {
		resp, err := h.conns[0].Get(stateURL)
		if err != nil {
			return "", err
		}
		resp.Body.Close()
		return strings.Trim(resp.Header.Get("ETag"), `"`), nil
	}
	l.res.addMedian("server.state_full_ms", "ms", get("http.state.full", stateURL, 9, http.StatusOK)/1e3)
	var deltaMs []float64
	for range 9 {
		base, err := etag()
		if err != nil {
			return err
		}
		// The next body that lands on this node moves one of its shards.
		for h.cursor%len(d.ingest) != 0 {
			h.cursor++
		}
		h.postNext(d, 0)
		if _, dur, ok := h.call(0, 0, "http.state.delta", http.MethodGet, stateURL+"&since="+base, nil, http.StatusOK); ok {
			deltaMs = append(deltaMs, float64(dur.Nanoseconds())/1e6)
		}
	}
	l.res.addMedian("server.state_delta_ms", "ms", median(deltaMs))
	base, err := etag()
	if err != nil {
		return err
	}
	l.res.addMedian("server.state_304_us", "us", get("http.state.304", stateURL+"&since="+base, 200, http.StatusNotModified))

	l.paced()
	return nil
}

// paced drives the ingest nodes open loop: requests are due on a fixed
// schedule whatever the deployment does, each is timed from when it was
// due, and how late the generator itself ran is reported beside it.
func (l *layerLedger) paced() {
	h, d := l.h, l.d
	total := max(200, int(2*pacedRate*h.w.scale))
	interval := time.Second / pacedRate
	base := h.cursor
	h.cursor += total
	var (
		next     atomic.Int64
		mu       sync.Mutex
		ack, lag []float64
		wg       sync.WaitGroup
	)
	id := l.rec.begin(0, "phase.paced")
	start := time.Now()
	for c := range h.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				sent := time.Now()
				_, ok := h.postBatch(d, c, id, base+i)
				done := time.Now()
				if ok {
					mu.Lock()
					ack = append(ack, float64(done.Sub(due).Nanoseconds())/1e3)
					lag = append(lag, float64(sent.Sub(due).Nanoseconds())/1e3)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	l.rec.end(id, int64(total), 0)
	l.res.addMedian("server.paced_ack_p50_us", "us", quantile(ack, 0.5))
	l.res.addMedian("server.paced_ack_p99_us", "us", quantile(ack, 0.99))
	l.res.addMedian("server.paced_late_p99_us", "us", quantile(lag, 0.99))
}

// finish writes the spans out.
func (l *layerLedger) finish(spanFile string) error {
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return err
	}
	if err := l.rec.writeFile(spanFile); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	l.res.note("%d spans written to %s", len(l.rec.spans), spanFile)
	return nil
}
