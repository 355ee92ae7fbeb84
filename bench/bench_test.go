package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeScale shrinks every workload to a second or two: enough to run
// every phase and emit every metric.
const smokeScale = 0.02

// smoke returns the workload at smoke size: smokeScale of the per-round
// work, two rounds, too few freshness cycles for a full rebuild (whose
// rows then read 0), and a population small enough to set up in
// milliseconds.
func smoke(w workload) workload {
	w = w.scaled(smokeScale)
	w.rounds, w.freshCycles = 2, 12
	w.bodies = max(32, w.bodies/64)
	return w
}

// manifest mirrors the parts of ../BENCHMARK.json the test holds the
// code against.
type manifest struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func smokeRun(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	spans := ""
	if traced {
		spans = filepath.Join(t.TempDir(), "spans.json")
	}
	res, err := runWorkload(smoke(w), 7, traced, spans)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Problems)
	}
	if traced {
		if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
			t.Errorf("%s: traced run wrote no spans (%v)", w.name, err)
		}
	}
	return res
}

func values(t *testing.T, res *result) map[string]metric {
	t.Helper()
	out := make(map[string]metric, len(res.Metrics))
	for _, m := range res.Metrics {
		if _, dup := out[m.Name]; dup {
			t.Errorf("%s: metric %s emitted twice", res.Workload, m.Name)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", res.Workload, m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: metric %s has unit %q", res.Workload, m.Name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v", res.Workload, m.Name, m.Value)
		}
		out[m.Name] = m
	}
	return out
}

// TestSmoke runs every workload at smoke scale — two end-to-end runs and
// one traced run with one seed — and holds what they emit against the
// declared metric lists, the contract's limits, and BENCHMARK.json.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	// Data directories land under the working directory; keep them out of
	// the source tree.
	t.Chdir(t.TempDir())

	if len(workloads) > 8 || len(endToEnd) > 16 {
		t.Fatalf("%d workloads, %d end-to-end metrics: over the limits (8, 16)", len(workloads), len(endToEnd))
	}
	if len(mf.Workloads) != len(workloads) || len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d workloads and %d end-to-end metrics, the code %d and %d",
			len(mf.Workloads), len(mf.EndToEnd), len(workloads), len(endToEnd))
	}
	for i, e := range endToEnd {
		m := mf.EndToEnd[i]
		if m.Name != e.name || m.Unit != e.unit || m.Better != e.better || m.Bound != e.bound {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, the code declares %+v", i, m, e)
		}
		limit := maxBound
		if e.name == "setup_s" {
			limit = maxSetupBound
		}
		if e.bound <= 0 || e.bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", e.name, e.bound, limit)
		}
	}
	layerUnits := make(map[string]string, len(mf.PerLayer))
	for _, m := range mf.PerLayer {
		layerUnits[m.Name] = m.Unit
	}
	if len(layerUnits) != len(mf.PerLayer) || len(mf.PerLayer) > 128 {
		t.Errorf("BENCHMARK.json per_layer: %d entries, %d distinct (limit 128)", len(mf.PerLayer), len(layerUnits))
	}

	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why || !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("BENCHMARK.json workloads[%d] = %+v, the code declares %q: %q", i, mf.Workloads[i], w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			a, b := values(t, smokeRun(t, w, false)), values(t, smokeRun(t, w, false))
			if len(a) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics emitted, %d declared", len(a), len(endToEnd))
			}
			for _, e := range endToEnd {
				m, ok := a[e.name]
				if !ok {
					t.Errorf("end-to-end metric %s not emitted", e.name)
					continue
				}
				if m.Unit != e.unit || m.Value <= 0 {
					t.Errorf("%s = %v %s, want a positive number of %s", e.name, m.Value, m.Unit, e.unit)
				}
			}
			// One seed, two runs: accuracy is a function of the inputs alone,
			// wire sizes too but for a varint-encoded random version salt.
			if a["tv_error"].Value != b["tv_error"].Value {
				t.Errorf("tv_error %v then %v with one seed", a["tv_error"].Value, b["tv_error"].Value)
			}
			for _, name := range []string{"pull_delta_wire_bytes", "pull_full_wire_bytes"} {
				if x, y := a[name].Value, b[name].Value; math.Abs(x-y) > 0.02*x {
					t.Errorf("%s %v then %v with one seed: more than 2%% apart", name, x, y)
				}
			}

			tr := values(t, smokeRun(t, w, true))
			if len(tr) != len(layerUnits) {
				t.Errorf("%d per-layer metrics emitted, BENCHMARK.json lists %d", len(tr), len(layerUnits))
			}
			for name, m := range tr {
				if _, e2e := bounds[name]; e2e {
					t.Errorf("traced run emitted end-to-end metric %s", name)
				}
				if unit, ok := layerUnits[name]; !ok || unit != m.Unit {
					t.Errorf("per-layer metric %s (%s) is not in BENCHMARK.json with that unit", name, m.Unit)
				}
			}
		})
	}
}
