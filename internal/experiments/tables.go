package experiments

import (
	"fmt"
	"strings"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/em"
	"ldpmarginals/internal/marginal"
)

// Table2 reproduces the paper's Table 2: per-user communication cost of
// each protocol, augmented with the error actually measured at a fixed
// configuration (d=8, k=2, eps=ln 3, movielens-style data). The paper's
// column is an asymptotic bound; the measured column confirms the
// ordering it predicts.
func Table2(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	const d, k = 8, 2
	n := opts.scaledN(1 << 17)
	ds, err := dataset.NewMovieLens(n, d, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{D: d, K: k, Epsilon: ln3, OptimizedPRR: true}
	betas := evalBetas(d, k, opts.MaxMarginals, opts.Seed)

	var b strings.Builder
	fmt.Fprintf(&b, "d=%d k=%d eps=ln3 N=%d  (paper Table 2 columns + measured mean TV)\n", d, k, n)
	fmt.Fprintf(&b, "%-8s %18s %18s\n", "Method", "Comm. bits/user", "Measured mean TV")
	for _, kind := range core.AllKinds() {
		p, err := core.New(kind, cfg)
		if err != nil {
			return nil, err
		}
		tv, _, err := meanTVOverRepeats(p, ds.Records, betas, opts, 1)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%-8s %18d %18.5f\n", p.Name(), p.CommunicationBits(), tv)
	}
	return &Result{
		ID:    "table2",
		Title: "Communication cost and measured error per protocol",
		Text:  b.String(),
	}, nil
}

// table3Rows are the exact configurations of the paper's Table 3.
type table3Row struct {
	logN int
	d    int
	k    int
	eps  float64
}

var table3Rows = []table3Row{
	{16, 8, 1, 0.2},
	{18, 8, 2, 0.1},
	{16, 8, 2, 0.2},
	{16, 12, 2, 0.2},
	{18, 16, 2, 0.1},
	{18, 16, 2, 0.2},
	{19, 24, 2, 0.2},
}

// Table3 reproduces Table 3: the failure rate of the InpEM baseline on
// the taxi dataset at small epsilon — the fraction of marginals whose EM
// decoding converges immediately to the uniform prior.
func Table3(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	base := dataset.NewTaxi(opts.scaledN(1<<19), opts.Seed+2)

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %4s %3s %5s %18s\n", "N", "d", "k", "eps", "Failed/Total")
	for i, row := range table3Rows {
		n := opts.scaledN(1 << uint(row.logN))
		ds := base
		if row.d != ds.D {
			var err error
			ds, err = dataset.DuplicateColumns(base, row.d)
			if err != nil {
				return nil, err
			}
		}
		records := ds.Records
		if n < len(records) {
			records = records[:n]
		}
		p, err := em.New(core.Config{D: row.d, K: row.k, Epsilon: row.eps})
		if err != nil {
			return nil, err
		}
		res, err := core.Run(p, records, opts.Seed+uint64(i)*31+3, opts.Workers)
		if err != nil {
			return nil, err
		}
		agg := res.(*em.Aggregator)
		betas := evalBetas(row.d, row.k, opts.MaxMarginals, opts.Seed+uint64(i))
		failed := 0
		for _, beta := range betas {
			dec, err := agg.EstimateDetailed(beta)
			if err != nil {
				return nil, err
			}
			if dec.Failed {
				failed++
			}
		}
		total := len(marginal.AllKWay(row.d, row.k))
		fmt.Fprintf(&b, "%-8d %4d %3d %5.2g %11d/%d (evaluated %d)\n",
			n, row.d, row.k, row.eps, failed, len(betas), total)
	}
	return &Result{
		ID:    "table3",
		Title: "InpEM failure rate on taxi data for small epsilon",
		Text:  b.String(),
	}, nil
}
