package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/marginal"
)

// parallelFor runs f(i) for every i in [0, n) across at most GOMAXPROCS
// goroutines and returns once all calls complete. Iterations are handed
// out work-stealing style (one atomic fetch per iteration), so uneven
// per-iteration cost still balances. f must be safe to call
// concurrently for distinct i.
func parallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// minParallelCells is the full-domain size (2^d) from which the
// input-view estimators fan their cell scans out across goroutines. The
// paper's default d=8 stays on the sequential path bit-for-bit; the
// large-d regimes (InpRR/InpPS up to d=20 scan 2^20 cells per query)
// parallelize.
const minParallelCells = 1 << 12

// scatterChunks is the fixed partition count of a parallel cell scan.
// It is a constant — not GOMAXPROCS — so the chunk boundaries, and with
// them the floating-point reduction order, are identical on every
// machine: results are deterministic for a given aggregator state
// regardless of core count.
const scatterChunks = 64

// scatterCells accumulates cell(j) into out.Cells[Compress(j, beta)]
// for every full-domain index j in [0, size), a power of two — the
// shared reconstruction scan of the input-view estimators. Small
// domains run the plain sequential loop; large domains split j into
// scatterChunks fixed ranges, scan them in parallel into per-chunk
// partial tables, and reduce the partials in chunk order. The chunked
// path is taken for every large domain — even on a single core, where
// parallelFor degrades to an in-order loop — so the summation grouping
// (and with it every last bit of the result) is the same on every
// machine.
func scatterCells(out *marginal.Table, beta uint64, size int, cell func(j int) float64) {
	if size < minParallelCells {
		for j := 0; j < size; j++ {
			out.Cells[bitops.Compress(uint64(j), beta)] += cell(j)
		}
		return
	}
	// size is a power of two, at least minParallelCells, so every chunk
	// holds size/scatterChunks indices.
	chunkSize := size / scatterChunks
	partials := make([][]float64, scatterChunks)
	parallelFor(scatterChunks, func(ci int) {
		part := make([]float64, len(out.Cells))
		for j := ci * chunkSize; j < (ci+1)*chunkSize; j++ {
			part[bitops.Compress(uint64(j), beta)] += cell(j)
		}
		partials[ci] = part
	})
	for _, part := range partials {
		for c, v := range part {
			out.Cells[c] += v
		}
	}
}
