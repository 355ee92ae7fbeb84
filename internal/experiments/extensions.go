package experiments

import (
	"fmt"
	"strings"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/dataset"
	"ldpmarginals/internal/efronstein"
	"ldpmarginals/internal/vec"
)

// ExtensionEfronStein evaluates the Section 6.3 conjecture: on
// categorical data, an Efron-Stein-based InpES protocol against InpHT on
// the binary-encoded records, over single-attribute and pairwise
// marginals. The paper conjectures the decomposition-based scheme "will
// be among the best solutions" for low-order categorical marginals.
func ExtensionEfronStein(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	cards := []int{5, 4, 3, 6}
	n := opts.scaledN(1 << 18)
	cat, err := dataset.NewCategoricalCorrelated(n, cards, opts.Seed+51)
	if err != nil {
		return nil, err
	}
	bin, err := cat.EncodeBinary()
	if err != nil {
		return nil, err
	}

	// Attribute pairs to evaluate, plus singletons.
	queries := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {0, 2}, {1, 3}, {2, 3}}

	// InpES in native category space.
	es, err := efronstein.New(efronstein.Config{Cardinalities: cards, K: 2, Epsilon: ln3})
	if err != nil {
		return nil, err
	}
	esRun, err := core.Run(es, bin.Records, opts.Seed+1, opts.Workers)
	if err != nil {
		return nil, err
	}
	esAgg := esRun.(*efronstein.Aggregator)

	// InpHT on the binary encoding: the k for a 2-attribute categorical
	// marginal is the total bit width of the two widest attributes.
	maxK := 0
	for _, q := range queries {
		w := 0
		for _, at := range q {
			w += bitsLenInt(cards[at] - 1)
		}
		if w > maxK {
			maxK = w
		}
	}
	ht, err := core.New(core.InpHT, core.Config{D: bin.D, K: maxK, Epsilon: ln3})
	if err != nil {
		return nil, err
	}
	htAgg, err := core.Run(ht, bin.Records, opts.Seed+2, opts.Workers)
	if err != nil {
		return nil, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "cards=%v N=%d eps=ln3 (TV per marginal)\n", cards, n)
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "attrs", "InpES", "InpHT(bin)")
	var esTotal, htTotal float64
	for _, q := range queries {
		exact, err := efronstein.ExactCategorical(cat, q)
		if err != nil {
			return nil, err
		}
		esDist, err := esAgg.EstimateCategorical(q)
		if err != nil {
			return nil, err
		}
		esTV := vec.TVDist(esDist, exact)

		mask, err := cat.MaskFor(q...)
		if err != nil {
			return nil, err
		}
		htTab, err := htAgg.Estimate(mask)
		if err != nil {
			return nil, err
		}
		exactTab, err := bin.Marginal(mask)
		if err != nil {
			return nil, err
		}
		htTV, err := htTab.TVDistance(exactTab)
		if err != nil {
			return nil, err
		}
		esTotal += esTV
		htTotal += htTV
		fmt.Fprintf(&b, "%-12s %12.5f %12.5f\n", fmt.Sprint(q), esTV, htTV)
	}
	fmt.Fprintf(&b, "%-12s %12.5f %12.5f\n", "mean",
		esTotal/float64(len(queries)), htTotal/float64(len(queries)))
	return &Result{
		ID:    "ext-es",
		Title: "Efron-Stein InpES vs binary-encoded InpHT on categorical data (Section 6.3)",
		Text:  b.String(),
	}, nil
}

func bitsLenInt(v int) int {
	n := 0
	for ; v > 0; v >>= 1 {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}
