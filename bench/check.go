package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/marginal"
	"ldpmarginals/internal/view"
)

// cellTolerance is how far a served cell may sit from the reference
// build's: the serving path reconstructs InpRR/InpPS through one WHT
// where the reference scans per table, which agree to ~1e-12.
const cellTolerance = 1e-9

// tvSlack is how far above the served theoretical_tv the measured TV
// may land: the bound is tight enough that an exact comparison would
// flap across seeds.
const tvSlack = 1.25

// reference is what the deployment must serve after preload, computed
// by the harness without the serving path: the true marginals of the
// generated records, and a cold view.Build over a sequential aggregator
// fed the same reports.
type reference struct {
	betas []uint64
	truth []*marginal.Table
	view  *view.View
}

func buildReference(p core.Protocol, in *inputs) (*reference, error) {
	cfg := p.Config()
	agg := p.NewAggregator()
	for _, body := range in.Bodies {
		_, reps, err := encoding.UnmarshalBatch(body, 0)
		if err != nil {
			return nil, err
		}
		if err := agg.ConsumeBatch(reps); err != nil {
			return nil, err
		}
	}
	v, err := view.Build(agg, p, view.Options{})
	if err != nil {
		return nil, err
	}
	ref := &reference{betas: core.KWayMasks(cfg.D, cfg.K), view: v}
	// The true marginals, from the records' histogram: integer counts
	// summed then scaled once, which is what marginal.FromRecords computes
	// (bit for bit) without a pass over every record per table.
	n := float64(len(in.Bodies) * in.Batch)
	for _, beta := range ref.betas {
		t, err := marginal.FromDistribution(in.Histogram, cfg.D, beta)
		if err != nil {
			return nil, err
		}
		ref.truth = append(ref.truth, t.Scale(1/n))
	}
	return ref, nil
}

// checkServed fetches every k-way marginal from the node over HTTP and
// holds it against the reference: each cell within cellTolerance of the
// reference build's, inside [0,1], each table summing to 1. Every
// marginal is one attempted operation beyond its GET. It returns the
// mean TV distance to the true marginals.
func (h *harness) checkServed(n *node, ref *reference, wantN int) float64 {
	var tvSum float64
	for i, beta := range ref.betas {
		url := n.url + "/marginal?beta=" + strconv.FormatUint(beta, 10)
		reply, _, ok := h.call(0, 0, "http.marginal", http.MethodGet, url, nil, http.StatusOK)
		if !ok {
			continue
		}
		var m struct {
			Cells []float64 `json:"cells"`
			N     int       `json:"n"`
		}
		if err := json.Unmarshal(reply, &m); err != nil {
			h.check(false, "GET /marginal beta=%d: undecodable reply: %v", beta, err)
			continue
		}
		want, err := ref.view.Marginal(beta)
		if err != nil || len(want.Cells) != len(m.Cells) {
			h.check(false, "GET /marginal beta=%d: %d cells, reference has %d (%v)", beta, len(m.Cells), len(want.Cells), err)
			continue
		}
		bad := ""
		var sum float64
		for c, got := range m.Cells {
			sum += got
			if math.Abs(got-want.Cells[c]) > cellTolerance {
				bad = fmt.Sprintf("cell %d = %v, reference %v", c, got, want.Cells[c])
			}
			if got < 0 || got > 1 {
				bad = fmt.Sprintf("cell %d = %v outside [0,1]", c, got)
			}
		}
		if math.Abs(sum-1) > cellTolerance {
			bad = fmt.Sprintf("cells sum to %v", sum)
		}
		if m.N != wantN {
			bad = fmt.Sprintf("epoch holds %d reports, %d preloaded", m.N, wantN)
		}
		h.check(bad == "", "GET /marginal beta=%d on %s: %s", beta, n.url, bad)
		tv, err := (&marginal.Table{Beta: beta, Cells: m.Cells}).TVDistance(ref.truth[i])
		if err != nil {
			h.check(false, "TV distance for beta=%d: %v", beta, err)
			continue
		}
		tvSum += tv
	}
	return tvSum / float64(len(ref.betas))
}

// checkBound holds the measured TV against the node's own
// /view/diagnostics bound wherever that bound says anything (< 1), and
// returns the bound (0 when the node reports none).
func (h *harness) checkBound(n *node, tv float64) float64 {
	reply, _, ok := h.call(0, 0, "http.view_diagnostics", http.MethodGet, n.url+"/view/diagnostics", nil, http.StatusOK)
	if !ok {
		return 0
	}
	var diag struct {
		TheoreticalTV float64 `json:"theoretical_tv"`
	}
	if err := json.Unmarshal(reply, &diag); err != nil {
		h.check(false, "GET /view/diagnostics: undecodable reply: %v", err)
		return 0
	}
	if diag.TheoreticalTV > 0 && diag.TheoreticalTV < 1 {
		h.check(tv <= tvSlack*diag.TheoreticalTV, "tv_error %.4g exceeds %.2f x theoretical_tv %.4g", tv, tvSlack, diag.TheoreticalTV)
	}
	return diag.TheoreticalTV
}

// statusN returns the node's /status report count.
func (h *harness) statusN(n *node) (int, bool) {
	reply, _, ok := h.call(0, 0, "http.status", http.MethodGet, n.url+"/status", nil, http.StatusOK)
	if !ok {
		return 0, false
	}
	var st struct {
		N int `json:"n"`
	}
	if err := json.Unmarshal(reply, &st); err != nil {
		h.check(false, "GET /status: undecodable reply: %v", err)
		return 0, false
	}
	return st.N, true
}
