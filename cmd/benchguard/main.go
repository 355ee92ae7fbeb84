// Command benchguard is the CI bench-regression smoke gate: it reads
// `go test -bench` output on stdin, looks each benchmark up in the
// checked-in BENCH_*.json baselines, and fails when any benchmark's
// median ns/op over its rows exceeds the baseline by more than the
// threshold factor.
//
// Usage:
//
//	go test -run '^$' -bench '...' -benchtime=0.3s -cpu=4 . | \
//	    go run ./cmd/benchguard -dir . -threshold 3
//
// The threshold is deliberately generous (default 3x): CI machines are
// noisy and differ from the box the baselines were recorded on, so the
// gate catches order-of-magnitude regressions — an accidentally
// quadratic loop, a lost fast path, a lock back on the hot path — not
// scheduling jitter. Benchmarks without a recorded baseline are listed
// and skipped, so adding a bench never breaks CI until its baseline is
// recorded.
//
// With -load-baseline the guard instead compares a cmd/ldpload result
// against the checked-in BENCH_load.json (stdin is not read):
//
//	benchguard -load-baseline BENCH_load.json -load-result load.json \
//	    -load-threshold 4
//
// The load gate fails when throughput drops below baseline divided by
// the threshold, when p99 latency exceeds the baseline p99 times the
// threshold, or when the run saw any 5xx reply or transport error —
// a soak that errors is a failure no matter how fast it went.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// benchFile is the subset of the BENCH_*.json layout the guard needs;
// the files carry richer context (descriptions, derived ratios, notes)
// that is ignored here.
type benchFile struct {
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
// "BenchmarkQueryCached-4   123456   117.3 ns/op   0 B/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.e+]+) ns/op`)

func main() {
	dir := flag.String("dir", ".", "directory holding the BENCH_*.json baseline files")
	threshold := flag.Float64("threshold", 3, "fail when a benchmark's median ns/op exceeds baseline by this factor")
	loadBaseline := flag.String("load-baseline", "", "checked-in cmd/ldpload baseline JSON; selects load mode (stdin is not read)")
	loadResult := flag.String("load-result", "", "cmd/ldpload result JSON to check against -load-baseline")
	loadThreshold := flag.Float64("load-threshold", 4, "load mode: fail when throughput falls below baseline/threshold or p99 exceeds baseline*threshold")
	flag.Parse()

	if *loadBaseline != "" {
		if err := guardLoad(*loadBaseline, *loadResult, *loadThreshold); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		return
	}

	baselines, err := loadBaselines(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if len(baselines) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: no baselines under %s\n", *dir)
		os.Exit(2)
	}

	checked, skipped, failures, err := guard(os.Stdin, os.Stdout, baselines, *threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: reading stdin:", err)
		os.Exit(2)
	}
	if checked == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no benchmark in the input matched a baseline")
		os.Exit(2)
	}
	fmt.Printf("benchguard: %d checked, %d without baseline, %d regressions\n", checked, skipped, len(failures))
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchguard:", f)
		}
		os.Exit(1)
	}
}

// guard reads `go test -bench` output from r and judges each benchmark
// name on the median ns/op of all its rows (a -count=5 run gives five),
// so one slow iteration of a -benchtime=1x row does not fail the gate.
// It writes one verdict line per name to w, in order of first
// appearance, and returns the names checked, the names skipped for
// want of a baseline, and one message per regression.
func guard(r io.Reader, w io.Writer, baselines map[string]float64, threshold float64) (checked, skipped int, failures []string, err error) {
	rows := make(map[string][]float64)
	var names []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		got, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if rows[m[1]] == nil {
			names = append(names, m[1])
		}
		rows[m[1]] = append(rows[m[1]], got)
	}
	if err := sc.Err(); err != nil {
		return 0, 0, nil, err
	}
	for _, name := range names {
		got := median(rows[name])
		base, ok := baselines[name]
		if !ok || base <= 0 {
			fmt.Fprintf(w, "skip  %-60s %12.0f ns/op (no baseline)\n", name, got)
			skipped++
			continue
		}
		checked++
		ratio := got / base
		verdict := "ok"
		if ratio > threshold {
			verdict = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: median %.0f ns/op of %d rows is %.1fx the %.0f ns/op baseline (limit %.1fx)",
				name, got, len(rows[name]), ratio, base, threshold))
		}
		fmt.Fprintf(w, "%-5s %-60s %12.0f ns/op  %5.2fx of baseline (%d rows)\n", verdict, name, got, ratio, len(rows[name]))
	}
	return checked, skipped, failures, nil
}

// median returns the median of xs (the mean of the middle two for an
// even count), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// loadFile is the subset of cmd/ldpload's LoadReport the guard reads.
type loadFile struct {
	ReportsSec float64 `json:"reports_per_sec"`
	Requests   uint64  `json:"requests"`
	Latency    struct {
		P99 float64 `json:"p99"`
	} `json:"latency_seconds"`
	Status struct {
		Err5xx      uint64 `json:"5xx"`
		Transport   uint64 `json:"errors"`
		SampleError string `json:"sample_error"`
	} `json:"status"`
}

// guardLoad compares one ldpload run against the checked-in baseline.
func guardLoad(basePath, resultPath string, threshold float64) error {
	if resultPath == "" {
		return fmt.Errorf("load mode needs -load-result")
	}
	read := func(path string) (loadFile, error) {
		var lf loadFile
		data, err := os.ReadFile(path)
		if err != nil {
			return lf, err
		}
		if err := json.Unmarshal(data, &lf); err != nil {
			return lf, fmt.Errorf("%s: %w", path, err)
		}
		return lf, nil
	}
	base, err := read(basePath)
	if err != nil {
		return err
	}
	got, err := read(resultPath)
	if err != nil {
		return err
	}
	if got.Requests == 0 {
		return fmt.Errorf("load result completed zero requests")
	}
	if got.Status.Err5xx > 0 || got.Status.Transport > 0 {
		return fmt.Errorf("load run saw %d 5xx replies and %d transport errors (first: %s)",
			got.Status.Err5xx, got.Status.Transport, got.Status.SampleError)
	}
	fmt.Printf("load: %.0f reports/s (baseline %.0f, floor %.0f), p99 %.2fms (baseline %.2fms, ceiling %.2fms)\n",
		got.ReportsSec, base.ReportsSec, base.ReportsSec/threshold,
		got.Latency.P99*1e3, base.Latency.P99*1e3, base.Latency.P99*threshold*1e3)
	if base.ReportsSec > 0 && got.ReportsSec < base.ReportsSec/threshold {
		return fmt.Errorf("throughput %.0f reports/s is below the %.0f floor (baseline %.0f / %.1fx)",
			got.ReportsSec, base.ReportsSec/threshold, base.ReportsSec, threshold)
	}
	if base.Latency.P99 > 0 && got.Latency.P99 > base.Latency.P99*threshold {
		return fmt.Errorf("p99 latency %.2fms exceeds the %.2fms ceiling (baseline %.2fms * %.1fx)",
			got.Latency.P99*1e3, base.Latency.P99*threshold*1e3, base.Latency.P99*1e3, threshold)
	}
	fmt.Println("benchguard: load within bounds")
	return nil
}

// loadBaselines merges the benchmark entries of every BENCH_*.json in
// dir into one name -> ns/op map.
func loadBaselines(dir string) (map[string]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var bf benchFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, b := range bf.Benchmarks {
			if b.NsPerOp > 0 {
				out[b.Name] = b.NsPerOp
			}
		}
	}
	return out, nil
}
