// EstimateEpsilon measures the realized privacy loss of a randomizer by
// Monte Carlo, comparing the output distributions induced by two
// adjacent inputs. The tests use it to confirm that every client
// mechanism provides (no more than) its configured epsilon — the
// executable counterpart of the paper's Facts 3.1 and 3.2.

package privacy

import (
	"fmt"
	"math"
	"sort"

	"ldpmarginals/internal/rng"
)

// Randomizer produces one output for a fixed input; successive calls
// must be independent given the RNG stream. Outputs are compared by
// string key, so any serializable output space works.
type Randomizer func(r *rng.RNG) string

// Estimate is the result of an empirical privacy measurement.
type Estimate struct {
	// Epsilon is the estimated max |log P1(o)/P2(o)| over reliably
	// observed outputs.
	Epsilon float64
	// Outputs is the number of distinct outputs observed.
	Outputs int
	// Ignored counts outputs excluded for insufficient observations
	// (frequency estimates too noisy to trust).
	Ignored int
	// WorstOutput is the output achieving the max ratio.
	WorstOutput string
}

// EstimateEpsilon samples each randomizer `samples` times and returns
// the empirical privacy loss between them. minCount excludes outputs
// observed fewer times in either distribution (default 25 when <= 0):
// rare outputs give unreliable ratio estimates.
//
// The estimate converges to the true epsilon from below as samples grow
// (rare worst-case outputs may be missed); tests should use output
// spaces small enough that every outcome is well observed.
func EstimateEpsilon(m1, m2 Randomizer, samples int, minCount int, seed uint64) (*Estimate, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("privacy: samples must be positive")
	}
	if minCount <= 0 {
		minCount = 25
	}
	r1 := rng.New(seed)
	r2 := rng.New(seed ^ 0x51ed2701)
	c1 := map[string]int{}
	c2 := map[string]int{}
	for i := 0; i < samples; i++ {
		c1[m1(r1)]++
		c2[m2(r2)]++
	}
	keys := map[string]bool{}
	for k := range c1 {
		keys[k] = true
	}
	for k := range c2 {
		keys[k] = true
	}
	est := &Estimate{Outputs: len(keys)}
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	for _, k := range ordered {
		n1, n2 := c1[k], c2[k]
		if n1 < minCount || n2 < minCount {
			est.Ignored++
			continue
		}
		ratio := math.Abs(math.Log(float64(n1) / float64(n2)))
		if ratio > est.Epsilon {
			est.Epsilon = ratio
			est.WorstOutput = k
		}
	}
	return est, nil
}
