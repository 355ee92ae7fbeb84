package view

import (
	"ldpmarginals/internal/bounds"
	"ldpmarginals/internal/marginal"
)

// Diagnostics is the per-epoch accuracy telemetry: the paper's
// theoretical error bound at the deployment's parameters next to what
// the build actually observed, so a dashboard can alert when realized
// movement exceeds the noise the theory predicts.
type Diagnostics struct {
	// TheoreticalTV is the paper's per-marginal total-variation error
	// bound (Theorems 4.3–4.5 / Lemma 4.6) at the epoch's
	// (protocol, n, d, k, eps) — the noise floor an alert should
	// compare drift against. Zero when TVBoundErr is set.
	TheoreticalTV float64 `json:"theoretical_tv,omitempty"`
	// TVBoundErr explains a missing bound: an empty epoch (the bounds
	// need n > 0) or a baseline protocol outside the paper's Table 2.
	TVBoundErr string `json:"tv_bound_error,omitempty"`
	// ConsistencyL1 is the total L1 cell mass the post-processing
	// moved across the k-way collection tables — all rounds of
	// consistency and simplex projection, measured against the raw
	// reconstruction. Large persistent values mean the unbiased
	// estimates land far from any consistent distribution, i.e. the
	// deployment is operating deep in its noise.
	ConsistencyL1 float64 `json:"consistency_l1"`
	// MaxDisagreement is the largest gap between the cells of the
	// sub-marginals two served k-way tables imply on an attribute set
	// they share, after the final simplex projection: 0 is a fully
	// consistent collection. The rounds stop once a consistency
	// projection moves no coefficient by more than 1e-9; only a build
	// that hits their cap of 128 can end further apart.
	MaxDisagreement float64 `json:"max_disagreement"`
	// ProjectionRounds is how many rounds of consistency projection and
	// simplex projection the build ran (0 for a RawCells build).
	ProjectionRounds int `json:"projection_rounds"`
	// DriftMaxTV and DriftMeanTV are the maximum and mean
	// total-variation distance per k-way marginal between this epoch
	// and the previous published epoch. Drift above TheoreticalTV is
	// the anomaly signal: the underlying distribution moved more than
	// sampling noise explains. Zero for the first epoch (and for
	// standalone Build calls), with DriftBaseEpoch 0.
	DriftMaxTV  float64 `json:"drift_max_tv"`
	DriftMeanTV float64 `json:"drift_mean_tv"`
	// DriftBaseEpoch is the epoch the drift was measured against.
	DriftBaseEpoch int64 `json:"drift_base_epoch"`
}

// fillTVBound computes the theoretical bound for the view's published
// parameters. Protocols outside the paper's Table 2 (the evaluation
// baselines) and empty epochs record the reason instead.
func (v *View) fillTVBound() {
	b, err := bounds.ForProtocol(v.Protocol, bounds.Params{
		N: v.N, D: v.cfg.D, K: v.cfg.K, Epsilon: v.cfg.Epsilon,
	})
	if err != nil {
		v.Diag.TVBoundErr = err.Error()
		return
	}
	v.Diag.TheoreticalTV = b
}

// consistencyCheckpoint copies the k-way tables' raw cells into dst
// (grown as needed) before post-processing; consistencyL1 then sums
// the absolute movement. Split so the incremental builder can reuse
// one scratch slab across epochs.
func consistencyCheckpoint(dst []float64, tables []*marginal.Table, kway int) []float64 {
	n := 0
	for _, t := range tables[:kway] {
		n += len(t.Cells)
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	off := 0
	for _, t := range tables[:kway] {
		copy(dst[off:], t.Cells)
		off += len(t.Cells)
	}
	return dst
}

// consistencyL1 returns the summed |after-before| across the k-way
// tables, given the checkpoint taken before post-processing.
func consistencyL1(before []float64, tables []*marginal.Table, kway int) float64 {
	var sum float64
	off := 0
	for _, t := range tables[:kway] {
		for c, v := range t.Cells {
			d := v - before[off+c]
			if d < 0 {
				d = -d
			}
			sum += d
		}
		off += len(t.Cells)
	}
	return sum
}

// marginalDrift measures how far cur's k-way marginals moved from
// prev's: per-table total-variation distance (half the L1 difference
// of the cell vectors), reduced to the max and mean over the C(d,k)
// collection tables. prev and cur are two epochs of one engine, so
// every table of cur has its match in prev, found by attribute mask,
// with as many cells.
func marginalDrift(prev, cur *View) (maxTV, meanTV float64) {
	var sum float64
	for i := 0; i < cur.kWay; i++ {
		t := cur.tables[i]
		pt := prev.tables[prev.pos[t.Beta]]
		var l1 float64
		for c, v := range t.Cells {
			d := v - pt.Cells[c]
			if d < 0 {
				d = -d
			}
			l1 += d
		}
		tv := l1 / 2
		if tv > maxTV {
			maxTV = tv
		}
		sum += tv
	}
	return maxTV, sum / float64(cur.kWay)
}
