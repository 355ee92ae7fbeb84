package experiments

import (
	"fmt"
	"strings"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/marginal"
)

// AblationPRR quantifies the design note of Section 5.1: the Wang et al.
// optimized PRR probabilities versus the vanilla symmetric eps/2 setting,
// for the two PRR-based protocols. The paper reports "little difference";
// this experiment measures it.
func AblationPRR(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	const d, k = 8, 2
	n := opts.scaledN(1 << 17)
	ds, err := dataset.NewMovieLens(n, d, opts.Seed+41)
	if err != nil {
		return nil, err
	}
	betas := evalBetas(d, k, defaultMaxMarginals(opts, 28), opts.Seed)
	var b strings.Builder
	fmt.Fprintf(&b, "d=%d k=%d eps=ln3 N=%d\n", d, k, n)
	fmt.Fprintf(&b, "%-8s %18s %18s\n", "Method", "optimized (OUE)", "vanilla eps/2")
	for _, kind := range []core.Kind{core.InpRR, core.MargRR} {
		row := make([]float64, 2)
		for i, optimized := range []bool{true, false} {
			cfg := core.Config{D: d, K: k, Epsilon: ln3, OptimizedPRR: optimized}
			p, err := core.New(kind, cfg)
			if err != nil {
				return nil, err
			}
			tv, _, err := meanTVOverRepeats(p, ds.Records, betas, opts, 1)
			if err != nil {
				return nil, err
			}
			row[i] = tv
		}
		fmt.Fprintf(&b, "%-8s %18.5f %18.5f\n", kind, row[0], row[1])
	}
	return &Result{
		ID:    "ablation-prr",
		Title: "OUE vs vanilla PRR probabilities (Section 5.1 note)",
		Text:  b.String(),
	}, nil
}

// AblationHTNormalization compares InpHT's Algorithm 2 normalization (the
// realized per-coefficient count N_j) against dividing by the expected
// count N/|T|: the realized count cancels the sampling noise in how many
// users drew each coefficient.
func AblationHTNormalization(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	const d, k = 12, 2
	n := opts.scaledN(1 << 16)
	ds, err := dataset.NewMovieLens(n, d, opts.Seed+42)
	if err != nil {
		return nil, err
	}
	betas := evalBetas(d, k, defaultMaxMarginals(opts, 30), opts.Seed)
	cfg := core.Config{D: d, K: k, Epsilon: ln3}
	p, err := core.New(core.InpHT, cfg)
	if err != nil {
		return nil, err
	}
	agg, err := core.Run(p, ds.Records, opts.Seed+5, opts.Workers)
	if err != nil {
		return nil, err
	}
	toggler, ok := agg.(interface{ SetNormalizeByExpected(bool) })
	if !ok {
		return nil, fmt.Errorf("experiments: InpHT aggregator lost its normalization toggle")
	}
	measure := func() (float64, error) {
		return marginal.MeanTV(agg, ds.Records, betas)
	}
	toggler.SetNormalizeByExpected(false)
	realized, err := measure()
	if err != nil {
		return nil, err
	}
	toggler.SetNormalizeByExpected(true)
	expected, err := measure()
	if err != nil {
		return nil, err
	}
	toggler.SetNormalizeByExpected(false)
	var b strings.Builder
	fmt.Fprintf(&b, "d=%d k=%d eps=ln3 N=%d\n", d, k, n)
	fmt.Fprintf(&b, "%-32s %12.5f\n", "normalize by realized N_j", realized)
	fmt.Fprintf(&b, "%-32s %12.5f\n", "normalize by expected N/|T|", expected)
	return &Result{
		ID:    "ablation-htnorm",
		Title: "InpHT coefficient normalization: realized vs expected counts",
		Text:  b.String(),
	}, nil
}
