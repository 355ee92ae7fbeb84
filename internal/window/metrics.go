package window

import (
	"ldpmarginals/internal/metrics"
)

// RegisterMetrics attaches the ring's continual-release vitals to r.
// Everything derives from state the ring already maintains — the
// rotation/expiry atomics and the sealed/live counts — so the ingest and
// rotation paths gain no new work; the sealed-bucket gauge takes the
// ring's read lock at scrape time only.
func (r *Ring) RegisterMetrics(reg *metrics.Registry) {
	reg.MustCounterFunc("ldp_window_rotations_total", "Bucket boundaries crossed (live bucket seals).", nil,
		func() float64 { return float64(r.rotated.Load()) })
	reg.MustCounterFunc("ldp_window_expired_buckets_total", "Buckets retired from the window.", nil,
		func() float64 { return float64(r.expired.Load()) })
	reg.MustGaugeFunc("ldp_window_sealed_buckets", "Retained non-empty sealed buckets.", nil,
		func() float64 {
			r.mu.RLock()
			defer r.mu.RUnlock()
			return float64(len(r.sealed))
		})
	reg.MustGaugeFunc("ldp_window_sealed_reports", "Reports held by sealed buckets still inside the window.", nil,
		func() float64 { return float64(r.sealedN.Load()) })
	reg.MustGaugeFunc("ldp_window_live_reports", "Reports in the live (unsealed) bucket.", nil,
		func() float64 { return float64(r.cur.Load().N()) })
}
