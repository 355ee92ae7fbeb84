// View-refresh benchmarks: the standalone epoch build (snapshot every
// shard, allocate the reconstruction arenas, build) against the engine
// path (fold only the shards touched since the last epoch into the
// counter state it holds, build over reusable arenas). Both run the same
// build and give the same view bit for bit; what the engine saves is the
// full snapshot and the allocations. One benchmark operation ingests a
// delta of the named size off-timer and then pays one epoch refresh
// on-timer, so ns/op is the refresh cost at that delta. The numbers
// across d in {8, 12, 16} and deltas of {1%, 10%, 100%} of the base
// population are recorded in BENCH_view.json; the snapshot+fold stage
// is benchmarked separately with allocation reporting (steady state
// allocates only the parts slice, no state).
package ldpmarginals_test

import (
	"fmt"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/view"
)

// benchViewBase is the base population behind every view-refresh bench.
const benchViewBase = 1 << 17

// viewBenchSetup builds a populated sharded pipeline plus a stream of
// delta batches of the requested size.
func viewBenchSetup(b *testing.B, kind core.Kind, d, k, deltaPct int) (core.Protocol, *core.ShardedAggregator, func()) {
	b.Helper()
	cfg := core.Config{D: d, K: k, Epsilon: 1.0986, OptimizedPRR: true}
	p, err := core.New(kind, cfg)
	if err != nil {
		b.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(20260726)
	makeReports := func(n int) []core.Report {
		reps := make([]core.Report, n)
		for i := range reps {
			rep, err := client.Perturb(uint64(i)%(1<<uint(d)), r)
			if err != nil {
				b.Fatal(err)
			}
			reps[i] = rep
		}
		return reps
	}
	sh := core.NewSharded(p, 4)
	base := makeReports(benchViewBase)
	for lo := 0; lo < len(base); lo += 1024 {
		hi := min(lo+1024, len(base))
		if err := sh.ConsumeBatch(base[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	deltaSize := benchViewBase * deltaPct / 100
	delta := makeReports(deltaSize)
	ingestDelta := func() {
		// The server's batch path lands one 1024-report chunk per shard
		// lock; a small delta therefore touches few shards.
		for lo := 0; lo < len(delta); lo += 1024 {
			hi := min(lo+1024, len(delta))
			if err := sh.ConsumeBatch(delta[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	return p, sh, ingestDelta
}

// viewBenchGrid is the d × delta matrix shared by the epoch-build
// benchmarks; k is capped at 3 per the d=16 refresh target.
var viewBenchGrid = []struct{ d, k, deltaPct int }{
	{8, 3, 1}, {8, 3, 10}, {8, 3, 100},
	{12, 3, 1}, {12, 3, 10}, {12, 3, 100},
	{16, 3, 1}, {16, 3, 10}, {16, 3, 100},
}

// benchViewProtocols are the two representative refresh workloads: the
// paper's overall winner (InpHT, compact coefficient state) and an
// input-view protocol (InpPS, 2^d-cell state) whose reconstruction
// starts with a full-domain transform of that state.
var benchViewProtocols = []core.Kind{core.InpHT, core.InpPS}

// BenchmarkViewEpochFull is the standalone path: every operation cuts a
// full snapshot of all shards and runs view.Build over it.
func BenchmarkViewEpochFull(b *testing.B) {
	for _, kind := range benchViewProtocols {
		for _, g := range viewBenchGrid {
			name := fmt.Sprintf("%s/d=%d/delta=%dpct", kind, g.d, g.deltaPct)
			b.Run(name, func(b *testing.B) {
				p, sh, ingestDelta := viewBenchSetup(b, kind, g.d, g.k, g.deltaPct)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ingestDelta()
					b.StartTimer()
					snap, err := sh.Snapshot()
					if err != nil {
						b.Fatal(err)
					}
					if _, err := view.Build(snap, p, view.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkViewEpochIncremental is the delta path through the real
// engine: every operation folds the freshly ingested delta into the
// counter state the engine holds and builds over its reusable arenas.
func BenchmarkViewEpochIncremental(b *testing.B) {
	for _, kind := range benchViewProtocols {
		for _, g := range viewBenchGrid {
			name := fmt.Sprintf("%s/d=%d/delta=%dpct", kind, g.d, g.deltaPct)
			b.Run(name, func(b *testing.B) {
				p, sh, ingestDelta := viewBenchSetup(b, kind, g.d, g.k, g.deltaPct)
				eng, err := view.NewEngine(sh, p, view.EngineOptions{})
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ingestDelta()
					b.StartTimer()
					if _, err := eng.Refresh(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSnapshotFold isolates the snapshot+fold stage: advancing the
// engine's cached linear sums past a freshly ingested 1% delta. With
// allocation reporting on, steady state shows one alloc/op: the parts
// slice of SnapshotDeltaInto (the engine reuses its own). The arena
// copies each moved shard into the copy it replaces.
func BenchmarkSnapshotFold(b *testing.B) {
	for _, kind := range []core.Kind{core.InpHT, core.InpPS, core.MargRR} {
		b.Run(kind.String(), func(b *testing.B) {
			_, sh, ingestDelta := viewBenchSetup(b, kind, 16, 3, 1)
			arena := sh.NewSnapshotArena()
			if arena == nil {
				b.Fatal("no arena")
			}
			if _, err := sh.SnapshotDeltaInto(arena); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ingestDelta()
				b.StartTimer()
				if _, err := sh.SnapshotDeltaInto(arena); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotFullBaseline is BenchmarkSnapshotFold's cold
// counterpart: the pre-delta architecture pays one full O(shards ×
// state) merge (plus a fresh aggregator allocation) per refresh
// regardless of how little changed.
func BenchmarkSnapshotFullBaseline(b *testing.B) {
	for _, kind := range []core.Kind{core.InpHT, core.InpPS, core.MargRR} {
		b.Run(kind.String(), func(b *testing.B) {
			_, sh, ingestDelta := viewBenchSetup(b, kind, 16, 3, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ingestDelta()
				b.StartTimer()
				if _, err := sh.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// batchDecodeBody is a 1024-report /report/batch body of the protocol.
func batchDecodeBody(b *testing.B, kind core.Kind, cfg core.Config) []byte {
	b.Helper()
	p, err := core.New(kind, cfg)
	if err != nil {
		b.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(7)
	reps := make([]core.Report, 1024)
	for i := range reps {
		if reps[i], err = client.Perturb(uint64(i)&(1<<cfg.D-1), r); err != nil {
			b.Fatal(err)
		}
	}
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkBatchDecode measures the /report/batch decode stage: with and
// without the pooled buffers (allocs/op is the point: the pooled path
// reuses the record slices across requests), then pooled once per wire
// shape the decoder reads inline (InpPS index, InpHT index+sign, MargPS
// beta+index, MargHT beta+index+sign, all d=8 k=2) and for MargRR, whose
// bitmap takes the general per-frame decode.
func BenchmarkBatchDecode(b *testing.B) {
	pooled := func(body []byte) func(b *testing.B) {
		return func(b *testing.B) {
			_, rs, es, err := encoding.UnmarshalBatchEndsInto(body, 1<<20, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, rs, es, err = encoding.UnmarshalBatchEndsInto(body, 1<<20, rs, es); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	body := batchDecodeBody(b, core.InpHT, core.Config{D: 16, K: 3, Epsilon: 1.0986, OptimizedPRR: true})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := encoding.UnmarshalBatchEnds(body, 1<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", pooled(body))
	for _, kind := range []core.Kind{core.InpPS, core.InpHT, core.MargPS, core.MargHT, core.MargRR} {
		body := batchDecodeBody(b, kind, core.Config{D: 8, K: 2, Epsilon: 1.0986, OptimizedPRR: true})
		b.Run(kind.String(), pooled(body))
	}
}
