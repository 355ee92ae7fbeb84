// Package privacy enforces local differential privacy budgets at serving
// time: Ledger caps a client token's composed epsilon spend inside one
// continual-release window, the accounting guard a windowed deployment
// puts in front of repeat reporters.
//
// The package's tests also estimate the realized privacy loss of every
// client mechanism by Monte Carlo (EstimateEpsilon in estimate_test.go).
package privacy

import (
	"errors"
	"fmt"
	"sync"
)

// ErrBudgetSpent marks a Charge rejected because the token's windowed
// privacy budget is exhausted; callers match it with errors.Is.
var ErrBudgetSpent = errors.New("privacy: window budget spent")

// Ledger enforces a per-client epsilon budget over a sliding window of
// collection rounds. Under continual release a client that reports in
// every round leaks its epsilon once per round; the ledger caps the
// composed loss inside any one window at Budget by rejecting reports
// from tokens whose recorded spend would exceed it. Spend is recorded
// in window-aligned buckets and Rotate retires the oldest bucket in
// step with the aggregation ring, so spend from more than a window ago
// stops counting — exactly mirroring the data it paid for sliding out
// of the release.
//
// The ledger trusts the token to identify a client; it is an accounting
// guard against well-behaved clients over-reporting (and a backstop
// against misconfigured replay loops), not an authentication mechanism.
type Ledger struct {
	budget float64 // max eps spend per token inside one window
	cost   float64 // eps cost of one report (the deployment's epsilon)

	mu       sync.Mutex
	buckets  []map[string]float64 // per-round spend by token; last is live
	rejected uint64
	charges  uint64 // accepted charges since startup
}

// NewLedger builds a ledger granting each token `budget` epsilon per
// window of `buckets` rounds, with every report costing `perReport`
// (the deployment's randomizer epsilon). A budget smaller than one
// report's cost would reject everything and is refused as a
// misconfiguration.
func NewLedger(budget, perReport float64, buckets int) (*Ledger, error) {
	if perReport <= 0 {
		return nil, fmt.Errorf("privacy: per-report epsilon must be positive, got %g", perReport)
	}
	if buckets < 1 {
		return nil, fmt.Errorf("privacy: ledger needs at least one round bucket, got %d", buckets)
	}
	if budget < perReport {
		return nil, fmt.Errorf("privacy: round budget %g is below one report's epsilon %g; every report would be rejected", budget, perReport)
	}
	return &Ledger{
		budget:  budget,
		cost:    perReport,
		buckets: make([]map[string]float64, buckets),
	}, nil
}

// Charge spends count reports' epsilon against token's window budget,
// all or nothing: either the whole batch fits and is recorded in the
// live round, or nothing is recorded and the error wraps
// ErrBudgetSpent. Charge before ingesting — a spend whose reports are
// later rejected only over-counts, which errs on the private side.
func (l *Ledger) Charge(token string, count int) error {
	if count <= 0 {
		return nil
	}
	cost := l.cost * float64(count)
	l.mu.Lock()
	defer l.mu.Unlock()
	spent := 0.0
	for _, b := range l.buckets {
		spent += b[token]
	}
	// The tiny relative slack keeps exact-budget clients (e.g. budget =
	// 4*eps, four reports) from tripping on float accumulation.
	if spent+cost > l.budget*(1+1e-9) {
		l.rejected++
		return fmt.Errorf("%w: %.6g of %.6g eps already spent this window, %d report(s) cost %.6g more", ErrBudgetSpent, spent, l.budget, count, cost)
	}
	live := l.buckets[len(l.buckets)-1]
	if live == nil {
		live = make(map[string]float64)
		l.buckets[len(l.buckets)-1] = live
	}
	live[token] += cost
	l.charges++
	return nil
}

// Rotate advances the ledger n rounds, retiring the n oldest spend
// buckets. Drive it from the same rotation that seals and expires the
// aggregation ring's buckets so budget recovery tracks data expiry.
func (l *Ledger) Rotate(n int) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n >= len(l.buckets) {
		for i := range l.buckets {
			l.buckets[i] = nil
		}
		return
	}
	copy(l.buckets, l.buckets[n:])
	for i := len(l.buckets) - n; i < len(l.buckets); i++ {
		l.buckets[i] = nil
	}
}

// LedgerStats is a point-in-time description of the ledger for status
// reporting.
type LedgerStats struct {
	// Budget echoes the configured budget.
	Budget float64
	// Tokens is the number of distinct tokens with live spend inside the
	// current window.
	Tokens int
	// Rejected counts charges refused since startup.
	Rejected uint64
}

// Stats reports the ledger's current shape.
func (l *Ledger) Stats() LedgerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	tokens := make(map[string]bool)
	for _, b := range l.buckets {
		for tok := range b {
			tokens[tok] = true
		}
	}
	return LedgerStats{
		Budget:   l.budget,
		Tokens:   len(tokens),
		Rejected: l.rejected,
	}
}
