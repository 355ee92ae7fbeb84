package view

import (
	"fmt"
	"testing"

	"ldpmarginals/internal/core"
)

// forgetPlan drops the memoized build plan of a deployment shape, so the
// next build derives it from scratch as a process's first epoch does.
func forgetPlan(cfg core.Config) { buildPlans.Delete(uint64(cfg.D)<<8 | uint64(cfg.K)) }

// benchBuild builds an InpHT k=3 view over 4,000 reports at each width,
// deriving the build plan first on every operation when cold.
func benchBuild(b *testing.B, cold bool) {
	for _, d := range []int{16, 24, 32} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			cfg := core.Config{D: d, K: 3, Epsilon: 1.1}
			p, err := core.New(core.InpHT, cfg)
			if err != nil {
				b.Fatal(err)
			}
			agg := p.NewAggregator()
			if err := agg.ConsumeBatch(perturb(b, p, 4000, 5)); err != nil {
				b.Fatal(err)
			}
			if _, err := Build(agg, p, Options{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					forgetPlan(cfg)
				}
				if _, err := Build(agg, p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkViewBuildCold is a process's first epoch: the (d, k) build
// plan, overlap structure included, is derived inside every operation.
func BenchmarkViewBuildCold(b *testing.B) { benchBuild(b, true) }

// BenchmarkViewBuildWarm is every later epoch's standalone build over
// the memoized plan.
func BenchmarkViewBuildWarm(b *testing.B) { benchBuild(b, false) }
