package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// runChild runs one workload in a fresh process (so its peak RSS is its
// own) and returns the report it printed as its last line of output.
// The child has exited by the time runChild returns.
func runChild(stderr io.Writer, workload string, seed uint64, seconds float64, trace string) (*report, []byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace,
	)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		if runErr != nil {
			return nil, nil, fmt.Errorf("workload %s: %w", workload, runErr)
		}
		return nil, nil, fmt.Errorf("workload %s: no report on the last line of output: %w", workload, err)
	}
	// A child that printed a report but exited non-zero had failed
	// operations; the report says so.
	return &rep, last, nil
}

// runAll runs every workload, each in its own process, forwarding each
// child's report line. It returns the exit code.
func runAll(seed uint64, seconds float64, trace string) int {
	code := 0
	for _, w := range workloads {
		rep, line, err := runChild(os.Stderr, w.name, seed, seconds, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Println(string(line))
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// runSelfcheck runs every workload in two alternating sets of k runs of
// the same code and the same seed, and compares the sets' medians cell
// by cell: a cell passes when the medians differ by at most half its
// bound (tv_error, which is deterministic per seed, must be identical).
// This is the benchmark's own test of whether its bounds can tell a
// regression from weather. It returns the exit code.
func runSelfcheck(k int, seed uint64, seconds float64) int {
	type cell struct{ a, b []float64 }
	cells := make(map[string]*cell)
	key := func(w, m string) string { return w + "/" + m }
	failedOps := int64(0)
	for i := range k {
		for set := range 2 {
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d, set %c, %s\n", i+1, k, 'A'+rune(set), w.name)
				rep, _, err := runChild(io.Discard, w.name, seed, seconds, "0")
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				failedOps += rep.Failed
				for name, v := range rep.Metrics {
					c := cells[key(w.name, name)]
					if c == nil {
						c = &cell{}
						cells[key(w.name, name)] = c
					}
					if set == 0 {
						c.a = append(c.a, v.Value)
					} else {
						c.b = append(c.b, v.Value)
					}
				}
			}
		}
	}

	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tgap\tbound\tverdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			c := cells[key(w.name, m.name)]
			if c == nil {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.0f%%\tFAIL (not emitted)\n", w.name, m.name, m.bound*100)
				code = 1
				continue
			}
			a, b := median(c.a), median(c.b)
			gap := math.Abs(a-b) / a
			verdict := "PASS"
			if m.name == "tv_error" {
				if a != b {
					verdict = "FAIL (not bit-equal)"
				}
			} else if gap > m.bound/2 {
				verdict = "FAIL"
			}
			if verdict != "PASS" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%.0f%%\t%s\n", w.name, m.name, a, b, gap*100, m.bound*100, verdict)
		}
	}
	tw.Flush()
	if failedOps > 0 {
		fmt.Printf("%d operations failed across the runs\n", failedOps)
		code = 1
	}
	return code
}
