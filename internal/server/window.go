package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The continual-release driver. A windowed deployment's bucket
// lifecycle — sealing the live bucket, expiring state that slid out of
// the window, recovering ledger budget, and persisting each sealed
// bucket once — is advanced by one background goroutine per server,
// ticking at a fraction of the bucket span so boundaries are honored
// promptly without per-bucket timers.

// rotator drives Ring.Advance (and its store/ledger side effects) on a
// ticker for the server's lifetime.
type rotator struct {
	s *Server

	stop      chan struct{}
	closeOnce sync.Once
	done      sync.WaitGroup

	lastErr atomic.Value // string: most recent advance failure, for /status
}

func newRotator(s *Server) *rotator {
	return &rotator{s: s, stop: make(chan struct{})}
}

func (ro *rotator) start() {
	ro.done.Add(1)
	go ro.loop()
}

// Close stops the rotation loop and joins it; idempotent.
func (ro *rotator) Close() {
	ro.closeOnce.Do(func() { close(ro.stop) })
	ro.done.Wait()
}

// loop wakes at a quarter of the bucket span, so a bucket boundary is
// acted on within ~bucket/4 of passing. A late tick only defers
// rotation — the ring seals by elapsed time, never by tick count.
func (ro *rotator) loop() {
	defer ro.done.Done()
	tick := ro.s.ring.Bucket() / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ro.stop:
			return
		case <-ticker.C:
			// Each advance roots its own lifecycle trace; the common
			// no-boundary-crossed tick is abandoned so the ~bucket/4
			// cadence doesn't flood the trace ring.
			ctx, root := ro.s.tracer.StartRoot(context.Background(), "window.advance")
			rotated, expired, err := ro.s.advanceWindowContext(ctx, time.Now())
			if err != nil {
				ro.lastErr.Store(err.Error())
				root.SetAttr("error", err.Error())
				ro.s.log.Warn("window advance failed", "err", err)
			}
			if err == nil && rotated == 0 && expired == 0 {
				root.Discard()
			} else {
				root.SetAttr("rotated", rotated)
				root.SetAttr("expired", expired)
				root.End()
			}
		}
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
	if s.rotor != nil {
		if e, ok := s.rotor.lastErr.Load().(string); ok {
			ws.LastRotateError = e
		}
	}
	return ws
}
