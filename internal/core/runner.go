package core

import (
	"fmt"
	"runtime"
	"sync"

	"ldpmarginals/internal/rng"
)

// BatchSimulator is an optional aggregator fast path: consuming a batch
// of records in one step with a distribution identical to perturbing each
// record and consuming the individual reports. InpRR implements it to
// avoid materializing 2^d-bit reports per user.
type BatchSimulator interface {
	SimulateBatch(records []uint64, r *rng.RNG) error
}

// Run simulates the full protocol over the records: every record is
// perturbed by a client with an independent RNG stream and consumed by an
// aggregator. Work is sharded over workers goroutines (GOMAXPROCS when
// workers <= 0) with one aggregator shard each, merged at the end —
// aggregation is associative, so the result is exact. It returns the
// merged aggregator, ready for Estimate queries.
func Run(p Protocol, records []uint64, seed uint64, workers int) (Aggregator, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("core: no records to run over")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(records) {
		workers = len(records)
	}

	base := rng.New(seed)
	type shard struct {
		agg Aggregator
		err error
	}
	shards := make([]shard, workers)
	rngs := make([]*rng.RNG, workers)
	for i := range rngs {
		rngs[i] = base.Fork()
	}

	var wg sync.WaitGroup
	chunk := (len(records) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(records) {
			hi = len(records)
		}
		if lo >= hi {
			shards[w].agg = p.NewAggregator()
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			agg := p.NewAggregator()
			shards[w].agg = agg
			r := rngs[w]
			if batch, ok := agg.(BatchSimulator); ok {
				shards[w].err = batch.SimulateBatch(records[lo:hi], r)
				return
			}
			client := p.NewClient()
			for _, rec := range records[lo:hi] {
				rep, err := client.Perturb(rec, r)
				if err != nil {
					shards[w].err = err
					return
				}
				if err := agg.Consume(rep); err != nil {
					shards[w].err = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()

	for w := range shards {
		if shards[w].err != nil {
			return nil, fmt.Errorf("core: worker %d: %w", w, shards[w].err)
		}
	}
	out := shards[0].agg
	for w := 1; w < len(shards); w++ {
		if err := out.Merge(shards[w].agg); err != nil {
			return nil, err
		}
	}
	if out.N() != len(records) {
		return nil, fmt.Errorf("core: aggregator consumed %d of %d reports", out.N(), len(records))
	}
	return out, nil
}
