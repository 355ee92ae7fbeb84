package experiments

import (
	"fmt"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/em"
	"ldpmarginals/internal/freqoracle"
)

// Fig6 reproduces Figure 6: 2-way marginal accuracy on the taxi data at
// larger dimensionalities (columns duplicated to d in {8, 16, 24}) as
// epsilon varies, comparing InpHT and MargPS against the InpEM baseline.
// Series are named "Proto/d=D".
func Fig6(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := opts.scaledN(1 << 18)
	base := dataset.NewTaxi(n, opts.Seed+31)
	res := &Result{
		ID:     "fig6",
		Title:  "2-way marginal TV on taxi data for larger d (InpEM vs InpHT/MargPS)",
		XLabel: "eps",
		YLabel: "mean TV",
	}
	for _, d := range []int{8, 16, 24} {
		ds := base
		if d != base.D {
			var err error
			ds, err = dataset.DuplicateColumns(base, d)
			if err != nil {
				return nil, err
			}
		}
		betas := evalBetas(d, 2, defaultMaxMarginals(opts, 40), opts.Seed+uint64(d))
		build := []struct {
			name string
			make func(eps float64) (core.Protocol, error)
		}{
			{"InpHT", func(eps float64) (core.Protocol, error) {
				return core.New(core.InpHT, core.Config{D: d, K: 2, Epsilon: eps, OptimizedPRR: true})
			}},
			{"MargPS", func(eps float64) (core.Protocol, error) {
				return core.New(core.MargPS, core.Config{D: d, K: 2, Epsilon: eps, OptimizedPRR: true})
			}},
			{"InpEM", func(eps float64) (core.Protocol, error) {
				return em.New(core.Config{D: d, K: 2, Epsilon: eps})
			}},
		}
		for _, bld := range build {
			s := Series{Name: fmt.Sprintf("%s/d=%d", bld.name, d)}
			for _, eps := range fig9Eps {
				p, err := bld.make(eps)
				if err != nil {
					return nil, err
				}
				tv, sd, err := meanTVOverRepeats(p, ds.Records, betas, opts, 1)
				if err != nil {
					return nil, err
				}
				s.X = append(s.X, eps)
				s.Y = append(s.Y, tv)
				s.Err = append(s.Err, sd)
			}
			res.Series = append(res.Series, s)
		}
	}
	return res, nil
}

// fig10DValues are the dimensionalities swept by Figure 10. The paper
// reports that InpOLH timed out beyond d=8 (12 hours at d=12); we skip
// it there for the same reason, leaving gaps in its series exactly as
// the paper's plot does.
var fig10DValues = []int{4, 6, 8, 12, 16}

// fig10OLHMaxD is the largest d at which the InpOLH decode (O(N * 2^d))
// is attempted.
const fig10OLHMaxD = 8

// Fig10 reproduces Figure 10 (Appendix B.2): 2-way marginal accuracy of
// the frequency-oracle baselines (InpOLH, InpHTCMS with g=5, w=256)
// against InpHT on lightly skewed synthetic data at e^eps = 3.
func Fig10(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := opts.scaledN(1 << 17)
	res := &Result{
		ID:     "fig10",
		Title:  "Frequency-oracle baselines vs InpHT on skewed synthetic data (eps=ln3)",
		XLabel: "d",
		YLabel: "mean TV",
	}
	ht := Series{Name: "InpHT"}
	olh := Series{Name: "InpOLH"}
	hcms := Series{Name: "InpHTCMS"}
	for _, d := range fig10DValues {
		ds, err := dataset.NewSkewed(n, d, 0.85, opts.Seed+uint64(d)*17+32)
		if err != nil {
			return nil, err
		}
		betas := evalBetas(d, 2, defaultMaxMarginals(opts, 30), opts.Seed+uint64(d))

		p, err := core.New(core.InpHT, core.Config{D: d, K: 2, Epsilon: ln3, OptimizedPRR: true})
		if err != nil {
			return nil, err
		}
		tv, _, err := meanTVOverRepeats(p, ds.Records, betas, opts, 1)
		if err != nil {
			return nil, err
		}
		ht.X = append(ht.X, float64(d))
		ht.Y = append(ht.Y, tv)

		if d <= fig10OLHMaxD {
			o, err := freqoracle.NewOLH(core.Config{D: d, K: 2, Epsilon: ln3})
			if err != nil {
				return nil, err
			}
			tv, _, err := meanTVOverRepeats(o, ds.Records, betas, opts, 1)
			if err != nil {
				return nil, err
			}
			olh.X = append(olh.X, float64(d))
			olh.Y = append(olh.Y, tv)
		}

		h, err := freqoracle.NewHCMS(freqoracle.HCMSConfig{D: d, K: 2, Epsilon: ln3, Seed: opts.Seed + 33})
		if err != nil {
			return nil, err
		}
		tv, _, err = meanTVOverRepeats(h, ds.Records, betas, opts, 1)
		if err != nil {
			return nil, err
		}
		hcms.X = append(hcms.X, float64(d))
		hcms.Y = append(hcms.Y, tv)
	}
	res.Series = []Series{ht, olh, hcms}
	return res, nil
}
