// Command bench is the repository's one benchmark: it starts the
// deployment in-process the way cmd/ldpserver does, drives it over
// loopback HTTP with fixed work, checks what it serves against a
// reference computation, and prints every metric by name and unit. See
// README.md for the workload and metric dictionary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (each in its own process)")
		seed      = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", refSeconds, "target length of the timed rounds on the reference box; scales the fixed per-round work linearly")
		trace     = flag.String("trace", "0", "0 = end-to-end metrics; 1 = per-layer ledger, spans written under "+scratchRoot+"/; any other value = ledger, spans written to that file")
		selfcheck = flag.Int("selfcheck", 0, "run every workload in two alternating sets of this many runs (3 is the reference) and compare the sets' medians against half of each bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	// Two cores' worth of scheduler, whatever the host has: the client
	// connections, shard counts and reference numbers all assume it.
	runtime.GOMAXPROCS(connections)

	if *selfcheck > 0 {
		os.Exit(runSelfcheck(*selfcheck, *seed, *seconds))
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	traced := *trace != "0"
	spanFile := ""
	if traced {
		spanFile = *trace
		if spanFile == "1" {
			spanFile = filepath.Join(scratchRoot, "trace-"+w.name+".json")
		}
	}
	res, err := runWorkload(w.scaled(*seconds/refSeconds), *seed, traced, spanFile)
	if err != nil {
		fatal(err)
	}
	printTable(res, traced)
	if err := printResult(res); err != nil {
		fatal(err)
	}
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// report is the one JSON object a workload run prints as the last line
// of its standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(res *result) error {
	rep := report{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]reportValue, len(res.Metrics)),
	}
	for _, m := range res.Metrics {
		rep.Metrics[m.Name] = reportValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// printTable writes the human-readable report to standard error.
func printTable(res *result, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Fprintf(os.Stderr, "\n%s: %s metrics\n", res.Workload, kind)
	if w := findWorkload(res.Workload); w != nil {
		fmt.Fprintf(os.Stderr, "  why: %s\n", w.why)
	}
	tw := tabwriter.NewWriter(os.Stderr, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tmin\tmax\tsamples\tbound")
	row := func(m metric, bound string) {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%d\t%s\n", m.Name, m.Value, m.Unit, m.Min, m.Max, m.Samples, bound)
	}
	for _, m := range res.Metrics {
		bound := "-"
		if b, ok := bounds[m.Name]; ok {
			bound = fmt.Sprintf("%.0f%%", b*100)
		}
		row(m, bound)
	}
	for _, m := range res.Ungated {
		row(m, "ungated")
	}
	tw.Flush()
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	fmt.Fprintf(os.Stderr, "  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "  FAILED: "+p)
	}
}
