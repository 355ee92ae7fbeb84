package experiments

import (
	"fmt"
	"math"
	"strings"

	"ldpmarginals/internal/chowliu"
	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/stats"
)

// datasetEstimator adapts a dataset's exact marginals to the
// marginal.Estimator interface, for non-private reference lines.
type datasetEstimator struct{ ds *dataset.Dataset }

func (e datasetEstimator) Estimate(beta uint64) (*marginal.Table, error) {
	return e.ds.Marginal(beta)
}

// Fig3 reproduces Figure 3: the Pearson correlation heatmap of the taxi
// attributes, rendered as a text matrix.
func Fig3(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	ds := dataset.NewTaxi(opts.scaledN(3_000_000), opts.Seed+21)
	m, err := stats.PearsonMatrix(ds.Records, ds.D)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "")
	for _, name := range ds.Names {
		fmt.Fprintf(&b, "%12s", name)
	}
	b.WriteString("\n")
	for i, name := range ds.Names {
		fmt.Fprintf(&b, "%-12s", name)
		for j := range ds.Names {
			fmt.Fprintf(&b, "%12.3f", m[i][j])
		}
		b.WriteString("\n")
	}
	return &Result{
		ID:    "fig3",
		Title: "Attribute correlation heatmap of (synthetic) NYC taxi data",
		Text:  b.String(),
	}, nil
}

// fig7Pairs are the attribute pairs of Figure 7 with the paper's
// expectation for each.
var fig7Pairs = []struct {
	a, b      string
	dependent bool
}{
	{"Night_pick", "Night_drop", true},
	{"Toll", "Far", true},
	{"CC", "Tip", true},
	{"M_drop", "CC", false},
	{"Far", "Night_pick", false},
	{"Toll", "Night_pick", false},
}

// Fig7 reproduces Figure 7: chi-squared independence test values on
// N=256K taxi trips at eps=1.1, comparing the non-private statistic with
// the statistics computed from InpHT and MargPS marginals against the
// critical value (df=1, 95%).
func Fig7(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := opts.scaledN(1 << 18)
	ds := dataset.NewTaxi(n, opts.Seed+22)
	cfg := core.Config{D: ds.D, K: 2, Epsilon: 1.1, OptimizedPRR: true}

	inpht, err := core.New(core.InpHT, cfg)
	if err != nil {
		return nil, err
	}
	margps, err := core.New(core.MargPS, cfg)
	if err != nil {
		return nil, err
	}
	htAgg, err := core.Run(inpht, ds.Records, opts.Seed+1, opts.Workers)
	if err != nil {
		return nil, err
	}
	psAgg, err := core.Run(margps, ds.Records, opts.Seed+2, opts.Workers)
	if err != nil {
		return nil, err
	}

	crit, err := stats.ChiSquareCritical(1, 0.05)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d eps=1.1 critical=%.3f (df=1, 95%%)\n", n, crit)
	fmt.Fprintf(&b, "%-24s %14s %14s %14s %10s\n", "Pair", "NonPrivate", "InpHT", "MargPS", "expect")
	exact := Series{Name: "NonPrivate"}
	ht := Series{Name: "InpHT"}
	ps := Series{Name: "MargPS"}
	for i, pair := range fig7Pairs {
		beta, err := ds.Mask(pair.a, pair.b)
		if err != nil {
			return nil, err
		}
		nonPriv, err := ds.Marginal(beta)
		if err != nil {
			return nil, err
		}
		htTab, err := htAgg.Estimate(beta)
		if err != nil {
			return nil, err
		}
		psTab, err := psAgg.Estimate(beta)
		if err != nil {
			return nil, err
		}
		nf := float64(n)
		r0, err := stats.ChiSquareIndependence(nonPriv, nf, 0.05)
		if err != nil {
			return nil, err
		}
		r1, err := stats.ChiSquareIndependence(htTab, nf, 0.05)
		if err != nil {
			return nil, err
		}
		r2, err := stats.ChiSquareIndependence(psTab, nf, 0.05)
		if err != nil {
			return nil, err
		}
		expect := "indep"
		if pair.dependent {
			expect = "dep"
		}
		fmt.Fprintf(&b, "%-24s %14.2f %14.2f %14.2f %10s\n",
			pair.a+"-"+pair.b, r0.Stat, r1.Stat, r2.Stat, expect)
		x := float64(i)
		exact.X = append(exact.X, x)
		exact.Y = append(exact.Y, r0.Stat)
		ht.X = append(ht.X, x)
		ht.Y = append(ht.Y, r1.Stat)
		ps.X = append(ps.X, x)
		ps.Y = append(ps.Y, r2.Stat)
	}
	return &Result{
		ID:     "fig7",
		Title:  "Chi-squared test values on taxi trips (eps=1.1)",
		XLabel: "pair index",
		YLabel: "chi-squared statistic",
		Series: []Series{exact, ht, ps},
		Text:   b.String(),
	}, nil
}

// Fig8 reproduces Figure 8: total mutual information of Chow-Liu
// dependency trees on movielens (d=10, N~200K) as epsilon varies. Tree
// structures are learned from exact, InpHT, and MargPS marginals; every
// structure is scored by the sum of *true* mutual informations over its
// edges, so a worse private structure shows up as a lower line.
func Fig8(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	const d = 10
	n := opts.scaledN(200_000)
	ds, err := dataset.NewMovieLens(n, d, opts.Seed+23)
	if err != nil {
		return nil, err
	}
	exactMI, err := chowliu.PairMI(datasetEstimator{ds}, d)
	if err != nil {
		return nil, err
	}
	exactTree, err := chowliu.Fit(exactMI)
	if err != nil {
		return nil, err
	}

	repeats := 3
	if opts.Repeats > 0 {
		repeats = opts.Repeats
	}
	scoreTree := func(t *chowliu.Tree) float64 {
		var total float64
		for _, e := range t.Edges {
			total += exactMI[e.A][e.B]
		}
		return total
	}

	res := &Result{
		ID:     "fig8",
		Title:  "Total mutual information of Chow-Liu trees on movielens (d=10)",
		XLabel: "eps",
		YLabel: "total MI of learned tree (bits, scored on true MI)",
	}
	nonPriv := Series{Name: "NonPrivate"}
	for _, eps := range fig9Eps {
		nonPriv.X = append(nonPriv.X, eps)
		nonPriv.Y = append(nonPriv.Y, exactTree.TotalMI)
		nonPriv.Err = append(nonPriv.Err, 0)
	}
	res.Series = append(res.Series, nonPriv)

	for _, kind := range []core.Kind{core.InpHT, core.MargPS} {
		s := Series{Name: kind.String()}
		for _, eps := range fig9Eps {
			cfg := core.Config{D: d, K: 2, Epsilon: eps, OptimizedPRR: true}
			p, err := core.New(kind, cfg)
			if err != nil {
				return nil, err
			}
			var vals []float64
			for rep := 0; rep < repeats; rep++ {
				agg, err := core.Run(p, ds.Records, opts.Seed+uint64(rep)*101+uint64(eps*1000), opts.Workers)
				if err != nil {
					return nil, err
				}
				tree, err := chowliu.FitFromEstimator(agg, d)
				if err != nil {
					return nil, err
				}
				vals = append(vals, scoreTree(tree))
			}
			var mean float64
			for _, v := range vals {
				mean += v
			}
			mean /= float64(len(vals))
			var sq float64
			for _, v := range vals {
				sq += (v - mean) * (v - mean)
			}
			s.X = append(s.X, eps)
			s.Y = append(s.Y, mean)
			s.Err = append(s.Err, math.Sqrt(sq/float64(len(vals))))
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
