// Package dataset provides the datasets of the paper's evaluation
// (Section 5.1) as reproducible synthetic generators, plus encoding
// utilities.
//
// The original study used NYC taxi trip records and MovieLens ratings.
// Neither raw dataset is available in this offline reproduction, so both
// are replaced by latent-factor generators that reproduce the statistical
// structure the paper relies on: the taxi generator realizes the exact
// dependent/independent attribute pairs exercised by the chi-squared study
// (Figure 7) and correlation heatmap (Figure 3); the movielens generator
// produces the all-positive pairwise correlations described in Section
// 5.1.
package dataset

import (
	"fmt"
	"math"

	"ldpmarginals/internal/bitops"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/rng"
)

// Dataset is a collection of user records over D binary attributes. A
// record is a bitmask: bit a holds the value of attribute a.
type Dataset struct {
	// D is the number of binary attributes (at most bitops.MaxAttributes).
	D int
	// Names holds one label per attribute.
	Names []string
	// Records holds one bitmask per user.
	Records []uint64
}

// N returns the number of records.
func (ds *Dataset) N() int { return len(ds.Records) }

// Validate checks structural invariants: D within range, names aligned,
// records within the 2^D domain.
func (ds *Dataset) Validate() error {
	if ds.D <= 0 || ds.D > bitops.MaxAttributes {
		return fmt.Errorf("dataset: d=%d out of range (1..%d)", ds.D, bitops.MaxAttributes)
	}
	if len(ds.Names) != ds.D {
		return fmt.Errorf("dataset: %d names for %d attributes", len(ds.Names), ds.D)
	}
	limit := uint64(1) << uint(ds.D)
	for i, r := range ds.Records {
		if r >= limit {
			return fmt.Errorf("dataset: record %d (%b) outside %d-attribute domain", i, r, ds.D)
		}
	}
	return nil
}

// AttributeIndex returns the position of the named attribute, or -1.
func (ds *Dataset) AttributeIndex(name string) int {
	for i, n := range ds.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Mask builds an attribute mask from attribute names. Unknown names
// produce an error.
func (ds *Dataset) Mask(names ...string) (uint64, error) {
	var m uint64
	for _, n := range names {
		i := ds.AttributeIndex(n)
		if i < 0 {
			return 0, fmt.Errorf("dataset: unknown attribute %q", n)
		}
		m |= 1 << uint(i)
	}
	return m, nil
}

// Marginal computes the exact empirical marginal over beta.
func (ds *Dataset) Marginal(beta uint64) (*marginal.Table, error) {
	return marginal.FromRecords(ds.Records, beta)
}

// DuplicateColumns extends the dataset to targetD attributes by repeating
// the original columns cyclically — the trick the paper uses to study
// larger dimensionalities on the taxi data (Section 5.4).
func DuplicateColumns(ds *Dataset, targetD int) (*Dataset, error) {
	if targetD < ds.D {
		return nil, fmt.Errorf("dataset: target d=%d smaller than current %d", targetD, ds.D)
	}
	if targetD > bitops.MaxAttributes {
		return nil, fmt.Errorf("dataset: target d=%d exceeds limit %d", targetD, bitops.MaxAttributes)
	}
	out := &Dataset{D: targetD, Names: make([]string, targetD), Records: make([]uint64, len(ds.Records))}
	for j := 0; j < targetD; j++ {
		src := j % ds.D
		if j < ds.D {
			out.Names[j] = ds.Names[src]
		} else {
			out.Names[j] = fmt.Sprintf("%s_dup%d", ds.Names[src], j/ds.D)
		}
	}
	for i, rec := range ds.Records {
		var ext uint64
		for j := 0; j < targetD; j++ {
			if rec&(1<<uint(j%ds.D)) != 0 {
				ext |= 1 << uint(j)
			}
		}
		out.Records[i] = ext
	}
	return out, nil
}

// TaxiNames lists the 8 attributes of the synthetic taxi dataset in bit
// order, matching Table 1 of the paper.
var TaxiNames = []string{"CC", "Toll", "Far", "Night_pick", "Night_drop", "M_pick", "M_drop", "Tip"}

// Taxi attribute bit positions.
const (
	TaxiCC = iota
	TaxiToll
	TaxiFar
	TaxiNightPick
	TaxiNightDrop
	TaxiMPick
	TaxiMDrop
	TaxiTip
)

// NewTaxi synthesizes n records with the dependence structure of the NYC
// taxi data (see the package comment). Three independent latent factors
// (night, long-trip, card-payment) plus a manhattan factor negatively
// coupled to trip length drive the attributes:
//
//   - strongly dependent pairs: (Night_pick, Night_drop), (Toll, Far),
//     (CC, Tip), (M_pick, M_drop);
//   - independent pairs: (M_drop, CC), (Far, Night_pick),
//     (Toll, Night_pick) — the factors behind them never interact.
func NewTaxi(n int, seed uint64) *Dataset {
	r := rng.New(seed)
	ds := &Dataset{D: 8, Names: append([]string(nil), TaxiNames...), Records: make([]uint64, n)}
	for i := 0; i < n; i++ {
		night := r.Bernoulli(0.30)
		far := r.Bernoulli(0.15)
		card := r.Bernoulli(0.60)
		// Long trips usually leave Manhattan.
		var manhattan bool
		if far {
			manhattan = r.Bernoulli(0.35)
		} else {
			manhattan = r.Bernoulli(0.80)
		}
		var rec uint64
		set := func(bit int, v bool) {
			if v {
				rec |= 1 << uint(bit)
			}
		}
		flip := func(v bool, p float64) bool {
			if r.Bernoulli(p) {
				return !v
			}
			return v
		}
		set(TaxiCC, flip(card, 0.05))
		set(TaxiFar, flip(far, 0.05))
		if far {
			set(TaxiToll, r.Bernoulli(0.70))
		} else {
			set(TaxiToll, r.Bernoulli(0.05))
		}
		set(TaxiNightPick, flip(night, 0.10))
		set(TaxiNightDrop, flip(night, 0.10))
		set(TaxiMPick, flip(manhattan, 0.08))
		set(TaxiMDrop, flip(manhattan, 0.08))
		if card {
			set(TaxiTip, r.Bernoulli(0.55))
		} else {
			set(TaxiTip, r.Bernoulli(0.10))
		}
		ds.Records[i] = rec
	}
	return ds
}

// movieGenres are the 17 MovieLens genre labels (Section 5.1).
var movieGenres = []string{
	"Action", "Adventure", "Animation", "Children", "Comedy", "Crime",
	"Documentary", "Drama", "Fantasy", "FilmNoir", "Horror", "Musical",
	"Mystery", "Romance", "SciFi", "Thriller", "Western",
}

// NewMovieLens synthesizes n user genre-preference vectors over d
// attributes. A shared per-user latent activity level makes every
// attribute pair positively correlated, as the paper observes of the real
// data; per-genre popularity offsets keep base rates heterogeneous.
// d may exceed 17, in which case genre labels repeat with a suffix.
func NewMovieLens(n, d int, seed uint64) (*Dataset, error) {
	if d <= 0 || d > bitops.MaxAttributes {
		return nil, fmt.Errorf("dataset: d=%d out of range (1..%d)", d, bitops.MaxAttributes)
	}
	r := rng.New(seed)
	names := make([]string, d)
	offsets := make([]float64, d)
	for j := 0; j < d; j++ {
		g := j % len(movieGenres)
		if j < len(movieGenres) {
			names[j] = movieGenres[g]
		} else {
			names[j] = fmt.Sprintf("%s_%d", movieGenres[g], j/len(movieGenres))
		}
		// Popularity offsets spread base rates over roughly [0.25, 0.75].
		offsets[j] = -1.1 + 2.2*float64(g%7)/6
	}
	sigmoid := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	ds := &Dataset{D: d, Names: names, Records: make([]uint64, n)}
	for i := 0; i < n; i++ {
		activity := r.Normal() * 1.3
		var rec uint64
		for j := 0; j < d; j++ {
			if r.Bernoulli(sigmoid(offsets[j] + activity)) {
				rec |= 1 << uint(j)
			}
		}
		ds.Records[i] = rec
	}
	return ds, nil
}

// NewSkewed synthesizes n records with d independent bits whose 1-rates
// decay geometrically from 0.5 by the given factor per attribute — the
// "lightly skewed" synthetic data of Appendix B.2. decay must be in
// (0, 1]; decay = 1 gives the uniform distribution.
func NewSkewed(n, d int, decay float64, seed uint64) (*Dataset, error) {
	if d <= 0 || d > bitops.MaxAttributes {
		return nil, fmt.Errorf("dataset: d=%d out of range (1..%d)", d, bitops.MaxAttributes)
	}
	if decay <= 0 || decay > 1 {
		return nil, fmt.Errorf("dataset: decay %v out of (0, 1]", decay)
	}
	r := rng.New(seed)
	probs := make([]float64, d)
	p := 0.5
	for j := range probs {
		probs[j] = math.Max(p, 0.02)
		p *= decay
	}
	names := make([]string, d)
	for j := range names {
		names[j] = fmt.Sprintf("attr%d", j)
	}
	ds := &Dataset{D: d, Names: names, Records: make([]uint64, n)}
	for i := 0; i < n; i++ {
		var rec uint64
		for j := 0; j < d; j++ {
			if r.Bernoulli(probs[j]) {
				rec |= 1 << uint(j)
			}
		}
		ds.Records[i] = rec
	}
	return ds, nil
}
