package server

import (
	"context"
	"fmt"
	"time"
)

// rotate is one tick of a windowed deployment's continual release:
// sealing the live bucket, expiring state that slid out of the window,
// recovering ledger budget, and persisting each sealed bucket once.
// NewWithOptions runs it every quarter of the bucket span, so a bucket
// boundary is acted on within ~bucket/4 of passing without per-bucket
// timers. A late tick only defers rotation — the ring seals by elapsed
// time, never by tick count.
func (s *Server) rotate() {
	// Each advance roots its own lifecycle trace; the common
	// no-boundary-crossed tick is abandoned so the ~bucket/4 cadence
	// doesn't flood the trace ring.
	ctx, root := s.tracer.StartRoot(context.Background(), "window.advance")
	rotated, expired, err := s.advanceWindowContext(ctx, time.Now())
	if err != nil {
		s.lastRotateErr.Store(err.Error())
		root.SetAttr("error", err.Error())
		s.log.Warn("window advance failed", "err", err)
	}
	if err == nil && rotated == 0 && expired == 0 {
		root.Discard()
	} else {
		root.SetAttr("rotated", rotated)
		root.SetAttr("expired", expired)
		root.End()
	}
}

func (s *Server) advanceWindowContext(ctx context.Context, now time.Time) (rotated, expired int, err error) {
	advance := func() (err error) {
		rotated, expired, err = s.ring.AdvanceContext(ctx, now)
		return err
	}
	if st := s.Store(); st != nil {
		if err = st.Cross(advance); err != nil {
			err = fmt.Errorf("persisting window buckets: %w", err)
		}
	} else {
		err = advance()
	}
	if rotated > 0 && s.ledger != nil {
		s.ledger.Rotate(rotated)
	}
	return rotated, expired, err
}

// WindowStatus is the continual-release section of a /status and
// /view/status reply (windowed deployments only).
type WindowStatus struct {
	// WindowSeconds and BucketSeconds echo the configured spans.
	WindowSeconds float64 `json:"window_seconds"`
	BucketSeconds float64 `json:"bucket_seconds"`
	// Buckets is the window capacity in buckets, including the live one.
	Buckets int `json:"buckets"`
	// SealedBuckets is the number of retained non-empty sealed buckets.
	SealedBuckets int `json:"sealed_buckets"`
	// SealedReports and LiveReports split the window's report count
	// between sealed buckets and the live one.
	SealedReports int `json:"sealed_reports"`
	LiveReports   int `json:"live_reports"`
	// Rotations counts bucket boundaries crossed since startup; Expired
	// counts buckets retired from the window.
	Rotations uint64 `json:"rotations"`
	Expired   uint64 `json:"expired_buckets"`
	// RoundEps is the per-token epsilon budget per window (0 when no
	// budget is enforced); BudgetTokens and BudgetRejected describe the
	// ledger.
	RoundEps       float64 `json:"round_eps,omitempty"`
	BudgetTokens   int     `json:"budget_tokens,omitempty"`
	BudgetRejected uint64  `json:"budget_rejected,omitempty"`
	// LastRotateError is the most recent background rotation failure, if
	// any.
	LastRotateError string `json:"last_rotate_error,omitempty"`
}

// windowStatus assembles the window block, or nil for a cumulative
// deployment.
func (s *Server) windowStatus() *WindowStatus {
	if !s.windowed() {
		return nil
	}
	rs := s.ring.Status()
	ws := &WindowStatus{
		WindowSeconds: rs.Window.Seconds(),
		BucketSeconds: rs.Bucket.Seconds(),
		Buckets:       rs.Buckets,
		SealedBuckets: rs.SealedBuckets,
		SealedReports: rs.SealedN,
		LiveReports:   rs.LiveN,
		Rotations:     rs.Rotations,
		Expired:       rs.Expired,
	}
	if s.ledger != nil {
		ls := s.ledger.Stats()
		ws.RoundEps = ls.Budget
		ws.BudgetTokens = ls.Tokens
		ws.BudgetRejected = ls.Rejected
	}
	if e, ok := s.lastRotateErr.Load().(string); ok {
		ws.LastRotateError = e
	}
	return ws
}
