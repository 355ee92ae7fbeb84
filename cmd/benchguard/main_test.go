package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// benchOutput renders -count rows of one benchmark, slow of them at
// slowNs ns/op and the rest at fastNs.
func benchOutput(name string, rows, slow int, fastNs, slowNs float64) string {
	var b strings.Builder
	for i := 0; i < rows; i++ {
		ns := fastNs
		if i < slow {
			ns = slowNs
		}
		fmt.Fprintf(&b, "%s-4   \t       1\t%12.0f ns/op\t  4096 B/op\n", name, ns)
	}
	return b.String()
}

// TestGuardJudgesTheMedianRow: a benchmark is judged on the median of
// its rows against the 3x threshold, so one slow -benchtime=1x row in
// five passes while three fail, and a name without a baseline is
// skipped.
func TestGuardJudgesTheMedianRow(t *testing.T) {
	const name = "BenchmarkClusterDeltaExchange/delta-1pct"
	baselines := map[string]float64{name + "-4": 1000}
	for _, tc := range []struct {
		slow int
		fail bool
	}{{0, false}, {1, false}, {2, false}, {3, true}, {5, true}} {
		in := benchOutput(name, 5, tc.slow, 1200, 3500) + benchOutput("BenchmarkUnrecorded", 2, 0, 10, 0)
		checked, skipped, failures, err := guard(strings.NewReader(in), io.Discard, baselines, 3)
		if err != nil {
			t.Fatal(err)
		}
		if checked != 1 || skipped != 1 {
			t.Errorf("%d slow rows: checked %d, skipped %d; want one each", tc.slow, checked, skipped)
		}
		if got := len(failures) > 0; got != tc.fail {
			t.Errorf("%d slow rows of 5: failed %v, want %v (%v)", tc.slow, got, tc.fail, failures)
		}
	}
}
