package view

import (
	"ldpmarginals/internal/metrics"
)

// viewInstruments is the engine's always-on instrumentation: build-stage
// latency histograms by build kind, updated inside buildNext. Allocated
// at NewEngine so the build path never nil-checks.
type viewInstruments struct {
	buildFull   *metrics.Histogram // from-scratch capture + build latency
	buildInc    *metrics.Histogram // delta fold + build latency
	snapshotDur *metrics.Histogram // capture (snapshot or fold) stage latency
}

func newViewInstruments() *viewInstruments {
	return &viewInstruments{
		buildFull:   metrics.NewHistogram(metrics.DurationBuckets()),
		buildInc:    metrics.NewHistogram(metrics.DurationBuckets()),
		snapshotDur: metrics.NewHistogram(metrics.DurationBuckets()),
	}
}

// RegisterMetrics attaches the engine's instrumentation to r under the
// ldp_view_* families. The epoch/age/staleness gauges read the published
// view through the engine's atomic pointer — no locks at scrape time;
// NewEngine publishes epoch 1 before it returns, so there always is one.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	r.MustRegister("ldp_view_build_seconds", "Epoch build latency (snapshot + reconstruction, the root build span's duration).", metrics.Labels{"kind": "full"}, e.ins.buildFull)
	r.MustRegister("ldp_view_build_seconds", "Epoch build latency (snapshot + reconstruction, the root build span's duration).", metrics.Labels{"kind": "incremental"}, e.ins.buildInc)
	r.MustRegister("ldp_view_snapshot_seconds", "Snapshot/delta-fold stage latency of epoch builds.", nil, e.ins.snapshotDur)
	r.MustCounterFunc("ldp_view_builds_total", "Epoch builds by kind.", metrics.Labels{"kind": "full"},
		func() float64 { return float64(e.fullBuilds.Load()) })
	r.MustCounterFunc("ldp_view_builds_total", "Epoch builds by kind.", metrics.Labels{"kind": "incremental"},
		func() float64 { return float64(e.incBuilds.Load()) })
	r.MustGaugeFunc("ldp_view_epoch", "Serving epoch number.", nil,
		func() float64 { return float64(e.Epoch()) })
	r.MustGaugeFunc("ldp_view_age_seconds", "Age of the serving epoch.", nil,
		func() float64 { return e.Current().Age().Seconds() })
	r.MustGaugeFunc("ldp_view_staleness_reports", "Reports ingested since the serving epoch was built.", nil,
		func() float64 { return float64(e.Current().Staleness(e.src.N())) })
	r.MustGaugeFunc("ldp_view_tables", "Materialized k-way tables in the serving epoch.", nil,
		func() float64 { return float64(e.Current().Tables()) })
	r.MustGaugeFunc("ldp_view_reports", "Reports contained in the serving epoch.", nil,
		func() float64 { return float64(e.Current().N) })
	// Accuracy diagnostics (diag.go): the theoretical noise floor next
	// to the observed correction magnitude and inter-epoch drift, so a
	// dashboard can alert on drift > bound without scraping
	// /view/diagnostics.
	r.MustGaugeFunc("ldp_view_tv_bound", "Paper's theoretical per-marginal TV error bound at the serving epoch's parameters (0 when unavailable).", nil,
		func() float64 { return e.Current().Diag.TheoreticalTV })
	r.MustGaugeFunc("ldp_view_consistency_l1", "L1 cell mass moved by consistency enforcement + projection in the serving epoch.", nil,
		func() float64 { return e.Current().Diag.ConsistencyL1 })
	r.MustGaugeFunc("ldp_view_drift_max_tv", "Maximum per-marginal TV drift of the serving epoch vs the previous epoch.", nil,
		func() float64 { return e.Current().Diag.DriftMaxTV })
	r.MustGaugeFunc("ldp_view_drift_mean_tv", "Mean per-marginal TV drift of the serving epoch vs the previous epoch.", nil,
		func() float64 { return e.Current().Diag.DriftMeanTV })
}
