package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the harness made: an HTTP request, or a direct
// call into a layer's public function. Nothing inside the program under
// test is instrumented; every span is opened and closed by the harness.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the recorder was created
	EndNs    int64  `json:"end_ns"`
	Count    int64  `json:"count,omitempty"` // operations the span covers
	Bytes    int64  `json:"bytes,omitempty"` // payload bytes the span moved
	SelfNs   int64  `json:"self_ns"`         // duration minus child spans, filled at write-out
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the tracing-off state: every method is a no-op, so untraced rounds pay
// one nil check per call.
type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload, StartNs: now,
	})
	return len(r.spans)
}

// end closes span id, recording how many operations and bytes it
// covered, and returns its duration.
func (r *recorder) end(id int, count, bytes int64) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs, s.Count, s.Bytes = now, count, bytes
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTimes fills every span's SelfNs: its duration minus the part of
// that interval its direct children cover (children that ran side by
// side, like the per-peer /state fetches of one pull, are counted once).
func (r *recorder) selfTimes() {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.SelfNs = s.EndNs - s.StartNs
		kids := children[s.ID]
		// Spans are appended in start order, so kids is already sorted
		// by StartNs.
		covered := s.StartNs
		for _, k := range kids {
			lo, hi := max(r.spans[k].StartNs, covered), min(r.spans[k].EndNs, s.EndNs)
			if hi > lo {
				s.SelfNs -= hi - lo
				covered = hi
			}
		}
	}
}

// selfByName returns the self times (ns) of every span with the name.
func (r *recorder) selfByName(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.SelfNs))
		}
	}
	return out
}

// durations returns the durations (ns) of every span with the name,
// restricted to children of spans named parentName when that is set.
func (r *recorder) durations(name, parentName string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		if parentName != "" && (s.Parent == 0 || r.spans[s.Parent-1].Name != parentName) {
			continue
		}
		out = append(out, float64(s.EndNs-s.StartNs))
	}
	return out
}

// writeFile dumps every span as one JSON array.
func (r *recorder) writeFile(path string) error {
	r.selfTimes()
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
