// Package metrics is a zero-dependency instrumentation registry speaking
// the Prometheus text exposition format (version 0.0.4). It exists so the
// serving tier can be observed at ingest rates without importing a client
// library: every increment path is a single atomic operation — no locks,
// no maps, no allocation — and the registry's mutex is touched only at
// registration and scrape time.
//
// Instruments are allocated standalone (NewCounter, NewGauge,
// NewHistogram) so components can embed them unconditionally and update
// them without nil checks; wiring them to a name happens later via
// Registry.MustRegister (or the Must* sugar that allocates and registers
// in one step). Derived values that are only worth computing at scrape
// time — segment counts, staleness ages — register as GaugeFunc or
// CounterFunc closures.
//
// The exposition writer renders families sorted by name and series
// sorted by their label set, so output is deterministic and diffable in
// golden tests.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Labels is one series' label set. The zero value (nil) is a series with
// no labels. Rendered sorted by key, so any map order is canonical.
type Labels map[string]string

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// NewCounter allocates a counter at zero.
func NewCounter() *Counter { return new(Counter) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters only go up; Add of a negative delta is not
// expressible by construction (the argument is unsigned).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricType() string { return "counter" }

func (c *Counter) write(b *bytes.Buffer, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(c.v.Load(), 10))
	b.WriteByte('\n')
}

// Gauge is an integer gauge: a value that can go up and down. The zero
// value is ready to use. Float-valued gauges register as a GaugeFunc.
type Gauge struct{ v atomic.Int64 }

// NewGauge allocates a gauge at zero.
func NewGauge() *Gauge { return new(Gauge) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

func (g *Gauge) metricType() string { return "gauge" }

func (g *Gauge) write(b *bytes.Buffer, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(g.v.Load(), 10))
	b.WriteByte('\n')
}

// GaugeFunc derives a float gauge at scrape time. The function must be
// safe for concurrent use and should be cheap relative to scrape cadence.
type GaugeFunc func() float64

func (GaugeFunc) metricType() string { return "gauge" }

func (f GaugeFunc) write(b *bytes.Buffer, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(f()))
	b.WriteByte('\n')
}

// CounterFunc derives a counter at scrape time from a value that is
// already monotone (an existing atomic the component maintains).
type CounterFunc func() float64

func (CounterFunc) metricType() string { return "counter" }

func (f CounterFunc) write(b *bytes.Buffer, name, labels string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(f()))
	b.WriteByte('\n')
}

// Histogram is a fixed-bucket histogram. Observations index a bucket by
// binary search over the upper bounds and land in per-bucket atomic
// counters; the running sum is a CAS loop over the value's float64 bits.
// No locks anywhere, so concurrent Observe calls scale with cores.
//
// A scrape reads the buckets without stopping writers, so a rendered
// histogram is a near-consistent snapshot: _count, _sum, and the +Inf
// bucket may disagree by the handful of observations that landed
// mid-render. Prometheus semantics tolerate this (each series is
// individually monotone).
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds; +Inf implied
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram allocates a histogram over the given strictly increasing
// upper bounds (the +Inf bucket is implicit). Panics on unsorted or
// empty bounds — bucket layout is a programming decision, not input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram bounds not strictly increasing at %d (%g after %g)", i, bounds[i], bounds[i-1]))
		}
	}
	if math.IsInf(bounds[len(bounds)-1], +1) {
		bounds = bounds[:len(bounds)-1]
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound covers v (le semantics); everything
	// above the last finite bound lands in the implicit +Inf bucket.
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Reset zeroes the histogram. Only for standalone measurement use
// (e.g. discarding a warmup phase) with no concurrent observers — a
// registered histogram must stay monotonic or scrapes misread it as a
// counter reset.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket holding the target rank, the same estimate a
// Prometheus histogram_quantile would produce. Observations beyond the
// last finite bound clamp to that bound. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if float64(cum) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // +Inf bucket: clamp
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			inBucket := float64(h.buckets[i].Load())
			if inBucket == 0 {
				return hi
			}
			below := float64(cum) - inBucket
			return lo + (hi-lo)*((rank-below)/inBucket)
		}
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) metricType() string { return "histogram" }

func (h *Histogram) write(b *bytes.Buffer, name, labels string) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		writeBucket(b, name, labels, formatFloat(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	writeBucket(b, name, labels, "+Inf", cum)
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
}

// writeBucket renders one name_bucket line with the le label merged into
// the series' own label set.
func writeBucket(b *bytes.Buffer, name, labels, le string, cum uint64) {
	b.WriteString(name)
	b.WriteString("_bucket")
	if labels == "" {
		b.WriteString(`{le="`)
	} else {
		b.WriteString(labels[:len(labels)-1]) // drop closing brace
		b.WriteString(`,le="`)
	}
	b.WriteString(le)
	b.WriteString(`"} `)
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and growing by factor. Panics on nonsense arguments.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DurationBuckets is the default latency layout: 100µs to 10s, roughly
// logarithmic — wide enough for an in-memory handler and a slow fsync.
func DurationBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// collector is the family-member contract: a typed instrument that can
// render its sample lines. Implemented only inside this package.
type collector interface {
	metricType() string
	write(b *bytes.Buffer, name, labels string)
}

type series struct {
	labels string // pre-rendered {k="v",...}, "" for none
	c      collector
}

type family struct {
	name, help, typ string
	series          []series
	seen            map[string]bool
}

// Registry holds named metric families and renders them in exposition
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
	sorted   bool
}

// NewRegistry allocates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// MustRegister attaches an existing instrument to the family name with
// the given label set. Panics on an invalid name or label, a type
// conflict within the family, or a duplicate (name, labels) series —
// all programming errors, caught at construction.
func (r *Registry) MustRegister(name, help string, labels Labels, c collector) {
	if !nameRe.MatchString(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: c.metricType(), seen: make(map[string]bool)}
		r.families[name] = f
		r.names = append(r.names, name)
		r.sorted = false
	} else if f.typ != c.metricType() {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, c.metricType()))
	}
	if f.seen[rendered] {
		panic(fmt.Sprintf("metrics: duplicate series %s%s", name, rendered))
	}
	f.seen[rendered] = true
	f.series = append(f.series, series{labels: rendered, c: c})
}

// MustGaugeFunc registers a scrape-time derived gauge.
func (r *Registry) MustGaugeFunc(name, help string, labels Labels, f func() float64) {
	r.MustRegister(name, help, labels, GaugeFunc(f))
}

// MustCounterFunc registers a scrape-time derived counter; f must be
// monotone.
func (r *Registry) MustCounterFunc(name, help string, labels Labels, f func() float64) {
	r.MustRegister(name, help, labels, CounterFunc(f))
}

// renderLabels canonicalizes a label set to its exposition form, sorted
// by key. Panics on invalid label names ("le" is reserved for histogram
// buckets).
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelRe.MatchString(k) || k == "le" {
			panic("metrics: invalid label name " + strconv.Quote(k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !bytes.ContainsAny([]byte(v), "\\\"\n") {
		return v
	}
	var b bytes.Buffer
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

func escapeHelp(v string) string {
	if !bytes.ContainsAny([]byte(v), "\\\n") {
		return v
	}
	var b bytes.Buffer
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders every family in exposition format 0.0.4: families
// sorted by name, series sorted by label set, one HELP/TYPE header per
// family. Derived funcs run while the registry lock is held, so they
// must not re-enter the registry.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	r.mu.Lock()
	if !r.sorted {
		sort.Strings(r.names)
		r.sorted = true
	}
	for _, name := range r.names {
		f := r.families[name]
		buf.WriteString("# HELP ")
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		buf.WriteString(escapeHelp(f.help))
		buf.WriteString("\n# TYPE ")
		buf.WriteString(f.name)
		buf.WriteByte(' ')
		buf.WriteString(f.typ)
		buf.WriteByte('\n')
		sort.SliceStable(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			s.c.write(&buf, f.name, s.labels)
		}
	}
	r.mu.Unlock()
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// ContentType is the exposition format's media type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry over HTTP: GET (or HEAD) only, with a 405
// naming the allowed method otherwise.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, http.MethodGet+" required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		if req.Method == http.MethodHead {
			return
		}
		_, _ = r.WriteTo(w)
	})
}
