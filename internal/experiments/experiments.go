// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5, Section 6, Appendix B) from this repository's
// implementations. Each experiment is a named runner returning a
// structured Result with the same rows/series the paper reports, plus a
// plain-text rendering.
//
// Runners take an Options value whose Scale field shrinks population
// sizes proportionally, so the identical code drives quick tests, the
// benchmark harness, and full-size CLI reproductions.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/rng"
)

// Options controls an experiment run.
type Options struct {
	// Scale multiplies every population size; 1 reproduces the paper's
	// N. Values below 1 shrink runs for quick iteration.
	Scale float64
	// Seed fixes all randomness of the run.
	Seed uint64
	// Workers is passed to the protocol runner (0 = GOMAXPROCS).
	Workers int
	// Repeats overrides the experiment's default repeat count when > 0.
	Repeats int
	// MaxMarginals caps how many marginals are averaged per measurement
	// (0 = experiment default). Large-d configurations subsample
	// deterministically to keep runtimes sane; the subset is seeded, so
	// runs remain reproducible.
	MaxMarginals int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Repeats < 0 {
		o.Repeats = 0
	}
	return o
}

// scaledN applies the scale factor with a floor that keeps estimates
// meaningful.
func (o Options) scaledN(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 500 {
		n = 500
	}
	return n
}

// Series is one plotted line: a name and aligned X/Y points, with an
// optional per-point standard deviation across repeats.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	Err  []float64
}

// Result is a regenerated table or figure.
type Result struct {
	// ID is the experiment identifier (e.g. "fig4", "table3").
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// XLabel / YLabel document the series axes, when the result is a
	// plot-shaped experiment.
	XLabel, YLabel string
	// Series holds the plotted lines, grouped by the Group key.
	Series []Series
	// Text is a pre-rendered table for table-shaped results; when empty,
	// Render synthesizes one from the series.
	Text string
}

// Render returns a plain-text rendering of the result: the pre-rendered
// Text if present, otherwise an aligned table of the series.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Text != "" {
		b.WriteString(r.Text)
		return b.String()
	}
	if len(r.Series) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%s vs %s\n", r.YLabel, r.XLabel)
	// Collect the union of x values.
	xsSet := map[float64]bool{}
	for _, s := range r.Series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	fmt.Fprintf(&b, "%-14s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14.4g", x)
		for _, s := range r.Series {
			v := math.NaN()
			for i, sx := range s.X {
				if sx == x {
					v = s.Y[i]
					break
				}
			}
			if math.IsNaN(v) {
				fmt.Fprintf(&b, "%16s", "-")
			} else {
				fmt.Fprintf(&b, "%16.5f", v)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Runner regenerates one paper artifact.
type Runner func(Options) (*Result, error)

// Registry maps experiment ids to runners, in the paper's order.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table2":          Table2,
		"table3":          Table3,
		"fig3":            Fig3,
		"fig4":            Fig4,
		"fig5":            Fig5,
		"fig6":            Fig6,
		"fig7":            Fig7,
		"fig8":            Fig8,
		"fig9":            Fig9,
		"fig10":           Fig10,
		"ablation-prr":    AblationPRR,
		"ablation-htnorm": AblationHTNormalization,
		"ext-es":          ExtensionEfronStein,
	}
}

// IDs returns the registered experiment ids in deterministic order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ln3 is the epsilon used throughout the paper's default setting
// (e^eps = 3).
var ln3 = math.Log(3)

// evalBetas returns the marginals to average over: all k-way marginals,
// subsampled deterministically to at most maxCount when positive.
func evalBetas(d, k, maxCount int, seed uint64) []uint64 {
	betas := marginal.AllKWay(d, k)
	if maxCount <= 0 || len(betas) <= maxCount {
		return betas
	}
	r := rng.New(seed ^ 0xb37a5)
	r.Shuffle(len(betas), func(i, j int) { betas[i], betas[j] = betas[j], betas[i] })
	betas = betas[:maxCount]
	sort.Slice(betas, func(i, j int) bool { return betas[i] < betas[j] })
	return betas
}

// meanTVOverRepeats runs the protocol `repeats` times with distinct seeds
// and returns the mean and standard deviation of the mean-TV metric.
func meanTVOverRepeats(p core.Protocol, records []uint64, betas []uint64, opts Options, repeats int) (mean, stddev float64, err error) {
	if opts.Repeats > 0 {
		repeats = opts.Repeats
	}
	if repeats < 1 {
		repeats = 1
	}
	var vals []float64
	for rep := 0; rep < repeats; rep++ {
		agg, err := core.Run(p, records, opts.Seed+uint64(rep)*7919+1, opts.Workers)
		if err != nil {
			return 0, 0, err
		}
		tv, err := marginal.MeanTV(agg, records, betas)
		if err != nil {
			return 0, 0, err
		}
		vals = append(vals, tv)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean = sum / float64(len(vals))
	var sq float64
	for _, v := range vals {
		sq += (v - mean) * (v - mean)
	}
	stddev = math.Sqrt(sq / float64(len(vals)))
	return mean, stddev, nil
}
