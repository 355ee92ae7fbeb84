// Package trace is a zero-dependency distributed-tracing core for the
// deployment: spans with IDs, parents and attributes; W3C
// traceparent extraction and injection so one trace crosses process
// boundaries (a coordinator's pull and the edge answering it share a
// trace ID); an in-memory bounded ring of completed traces served as
// JSON on GET /debug/traces; and a slow-trace log.
//
// The design splits responsibilities so the hot path stays cheap and
// lock-free where it matters:
//
//   - A Tracer owns the completed-trace ring and mints root spans
//     (either fresh, or continuing a remote context extracted from a
//     traceparent header).
//   - Child spans are created from a context.Context via StartSpan and
//     need no Tracer: they hang off the root's shared trace record.
//     When the context carries no span, StartSpan returns a nil *Span
//     whose methods all no-op, so instrumented layers never branch on
//     "is tracing on".
//   - Ending a span freezes it and appends it to the trace under the
//     trace's mutex; readers (the /debug/traces handler) only ever see
//     finished spans, so scraping races nothing.
//   - Nothing is formatted while a request runs. A span keeps its ids
//     as bytes and its string, int and bool attributes as values; the
//     root span lives inside its trace record, so a request's root
//     costs one allocation; and the ring of completed traces is a
//     circular buffer, so publishing a trace moves no other. Ids,
//     attribute values and timings are formatted only when a snapshot
//     is taken (Tracer.Snapshot, GET /debug/traces).
//
// Every trace is recorded (there is no sampling): the ring is bounded,
// spans per trace are capped (overflow counts as dropped, never
// blocks), and a root that takes SlowThreshold (1 s) or longer is
// logged.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/textproto"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceParentHeader is the W3C trace-context header carrying a trace
// across process boundaries.
const TraceParentHeader = "traceparent"

// traceParentKey is TraceParentHeader in the canonical form http.Header
// stores it under.
var traceParentKey = textproto.CanonicalMIMEHeaderKey(TraceParentHeader)

// maxSpansPerTrace caps one trace's record list; spans ended beyond it
// are counted in Stats.DroppedSpans instead of growing without bound
// (a runaway loop inside one request must not eat the heap).
const maxSpansPerTrace = 256

// DefaultCapacity is the completed-trace ring size.
const DefaultCapacity = 128

// TraceID is the 16-byte W3C trace id.
type TraceID [16]byte

// SpanID is the 8-byte W3C span id.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string {
	var b [2 * len(t)]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

func (s SpanID) String() string {
	var b [2 * len(s)]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// Attr is one span attribute as rendered on /debug/traces.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one finished span as retained in the ring and rendered
// on /debug/traces. Immutable once appended.
type SpanRecord struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartOffsetMicros is the span start relative to the trace root's
	// start (negative when a remote parent started earlier).
	StartOffsetMicros int64  `json:"start_offset_us"`
	DurationMicros    int64  `json:"duration_us"`
	Attrs             []Attr `json:"attrs,omitempty"`
}

// inlineSpans is how many finished spans a trace holds before its span
// list spills to the heap; an ingest request ends two.
const inlineSpans = 4

// traceData is the shared record of one trace: its root span, every
// finished span (appended under mu), and, once the root has ended, when
// that was. The root span hands it to children through the context.
type traceData struct {
	tracer  *Tracer
	traceID TraceID
	remote  bool // the trace began in another process
	root    Span // its start is the trace's; offsets are relative to it
	endedAt time.Time

	mu        sync.Mutex
	spans     []*Span // finished, in the order they ended
	spanSlots [inlineSpans]*Span
	dropped   int
}

// attrKind says which field of an attr holds its value.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrBool
)

// attr is one attribute as a span keeps it: the value unformatted.
type attr struct {
	key  string
	str  string
	num  int64
	kind attrKind
}

// text is the attribute's value as /debug/traces renders it — what
// fmt.Sprint renders for the value set.
func (a *attr) text() string {
	switch a.kind {
	case attrInt:
		return strconv.FormatInt(a.num, 10)
	case attrBool:
		return strconv.FormatBool(a.num != 0)
	}
	return a.str
}

// inlineAttrs is how many attributes a span holds before its attribute
// list spills to the heap; an ingest request's root sets three.
const inlineAttrs = 4

// Span is one in-flight operation. A nil *Span is valid and inert, so
// instrumented code paths never need to check whether tracing is
// active. All methods are safe for use by the single goroutine running
// the operation; distinct spans of one trace may run concurrently.
// Once ended, a span is immutable: later attributes are dropped, and
// the trace's readers see it as it was at End.
type Span struct {
	td     *traceData
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	dur    time.Duration // set by End
	root   bool

	attrs     []attr
	attrSlots [inlineAttrs]attr
	ended     atomic.Bool
}

// TraceID returns the span's trace id (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.td.traceID
}

// SpanID returns the span's id (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr records a key/value attribute on the span, rendered as
// fmt.Sprint renders the value. Strings, ints and bools are kept as
// they are and formatted when a snapshot is taken; an error, and any
// other value, is formatted now, so a span never retains references
// into request state. The typed setters do the same without boxing the
// value.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	switch x := value.(type) {
	case string:
		s.SetString(key, x)
	case int:
		s.SetInt(key, int64(x))
	case int64:
		s.SetInt(key, x)
	case bool:
		s.SetBool(key, x)
	case error:
		s.SetString(key, x.Error())
	default:
		s.SetString(key, fmt.Sprint(x))
	}
}

// SetString records a string attribute.
func (s *Span) SetString(key, value string) { s.addAttr(attr{key: key, str: value, kind: attrString}) }

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, value int64) { s.addAttr(attr{key: key, num: value, kind: attrInt}) }

// SetBool records a boolean attribute.
func (s *Span) SetBool(key string, value bool) {
	a := attr{key: key, kind: attrBool}
	if value {
		a.num = 1
	}
	s.addAttr(a)
}

func (s *Span) addAttr(a attr) {
	if s == nil || s.ended.Load() {
		return
	}
	if s.attrs == nil {
		s.attrs = s.attrSlots[:0]
	}
	s.attrs = append(s.attrs, a)
}

// End finishes the span, freezing it and appending it to the trace.
// Ending the root additionally publishes the trace into the tracer's
// ring (and the slow-trace log when it qualifies). End is idempotent;
// only the first call records.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	now := time.Now()
	s.dur = now.Sub(s.start)
	td := s.td
	td.mu.Lock()
	if td.spans == nil {
		td.spans = td.spanSlots[:0]
	}
	if len(td.spans) < maxSpansPerTrace {
		td.spans = append(td.spans, s)
	} else {
		td.dropped++
	}
	td.mu.Unlock()
	tr := td.tracer
	tr.spansTotal.Add(1)
	if s.root {
		td.endedAt = now
		tr.record(td)
	}
}

// render formats the finished span s of trace td for /debug/traces.
func (td *traceData) render(s *Span) SpanRecord {
	rec := SpanRecord{
		SpanID:            s.id.String(),
		Name:              s.name,
		StartOffsetMicros: s.start.Sub(td.root.start).Microseconds(),
		DurationMicros:    s.dur.Microseconds(),
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make([]Attr, len(s.attrs))
		for i := range s.attrs {
			rec.Attrs[i] = Attr{Key: s.attrs[i].key, Value: s.attrs[i].text()}
		}
	}
	return rec
}

// Discard abandons a root span without recording its trace — for
// periodic operations that turned out to be no-ops (an empty window
// advance), which would otherwise flood the ring. Child spans already
// ended under this root are discarded with it. No-op on non-root or
// already-ended spans.
func (s *Span) Discard() {
	if s == nil || !s.root {
		return
	}
	s.ended.Store(true)
}

type ctxKey struct{}

// FromContext returns the active span of ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ContextWith returns ctx carrying span as the active span.
func ContextWith(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, span)
}

// StartSpan opens a child of ctx's active span, returning the derived
// context and the child. When ctx carries no span the returned span is
// nil (inert) and ctx is returned unchanged — instrumentation points
// need no tracer and no enablement check.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil || parent.td == nil {
		return ctx, nil
	}
	child := &Span{
		td:     parent.td,
		id:     newSpanID(),
		parent: parent.id,
		name:   name,
		start:  time.Now(),
	}
	return ContextWith(ctx, child), child
}

// SlowThreshold is the root-span duration at or above which a
// completed trace is reported to the tracer's slow-trace log.
const SlowThreshold = time.Second

// Tracer mints root spans and retains completed traces in a bounded
// ring for GET /debug/traces.
type Tracer struct {
	slowLog func(traceID, rootName string, d time.Duration)
	slow    time.Duration // SlowThreshold; only tests lower it

	mu   sync.Mutex
	ring []*traceData // circular; len == capacity
	next int          // the slot the next completed trace goes to
	held int          // completed traces in the ring, <= capacity

	spansTotal   atomic.Uint64
	tracesTotal  atomic.Uint64
	droppedTotal atomic.Uint64
}

// New builds a tracer. slowLog receives one line per trace whose root
// took SlowThreshold or longer (trace id, root name, duration); nil
// disables the slow-trace log.
func New(slowLog func(traceID, rootName string, d time.Duration)) *Tracer {
	return &Tracer{slowLog: slowLog, slow: SlowThreshold, ring: make([]*traceData, DefaultCapacity)}
}

// StartRoot opens a fresh root span with a new trace id.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	return t.startRoot(ctx, name, newTraceID(), SpanID{}, false)
}

// StartRemoteRoot opens a root span continuing a trace begun in another
// process: the given trace id is kept and the remote span becomes the
// parent, so both processes' /debug/traces show one trace id.
func (t *Tracer) StartRemoteRoot(ctx context.Context, name string, traceID TraceID, parent SpanID) (context.Context, *Span) {
	if traceID.IsZero() {
		return t.StartRoot(ctx, name)
	}
	return t.startRoot(ctx, name, traceID, parent, true)
}

func (t *Tracer) startRoot(ctx context.Context, name string, traceID TraceID, parent SpanID, remote bool) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	td := &traceData{tracer: t, traceID: traceID, remote: remote}
	root := &td.root
	root.td, root.id, root.parent, root.name, root.root = td, newSpanID(), parent, name, true
	root.start = time.Now()
	return ContextWith(ctx, root), root
}

// record publishes a trace whose root has ended into the ring,
// overwriting the oldest once the ring is full.
func (t *Tracer) record(td *traceData) {
	d := td.root.dur.Truncate(time.Microsecond)
	t.tracesTotal.Add(1)
	td.mu.Lock()
	dropped := td.dropped
	td.mu.Unlock()
	if dropped > 0 {
		t.droppedTotal.Add(uint64(dropped))
	}
	t.mu.Lock()
	t.ring[t.next] = td
	t.next = (t.next + 1) % len(t.ring)
	t.held = min(t.held+1, len(t.ring))
	t.mu.Unlock()
	if t.slowLog != nil && d >= t.slow {
		t.slowLog(td.traceID.String(), td.root.name, d)
	}
}

// Stats is a point-in-time description of the tracer.
type Stats struct {
	// Spans is the number of span records finished since startup.
	Spans uint64
	// Traces is the number of completed (root-ended) traces.
	Traces uint64
	// DroppedSpans counts span records discarded because their trace
	// exceeded the per-trace span cap.
	DroppedSpans uint64
}

// Stats reports the tracer's counters.
func (t *Tracer) Stats() Stats {
	return Stats{
		Spans:        t.spansTotal.Load(),
		Traces:       t.tracesTotal.Load(),
		DroppedSpans: t.droppedTotal.Load(),
	}
}

// TraceJSON is one completed trace as rendered on /debug/traces.
type TraceJSON struct {
	TraceID string `json:"trace_id"`
	// Root is the root span's name, repeated at the top level so a
	// scrape can be filtered without descending into spans.
	Root string `json:"root"`
	// Remote reports whether the trace began in another process (the
	// root continued an extracted traceparent).
	Remote         bool         `json:"remote,omitempty"`
	EndedAt        time.Time    `json:"ended_at"`
	DurationMicros int64        `json:"duration_us"`
	DroppedSpans   int          `json:"dropped_spans,omitempty"`
	Spans          []SpanRecord `json:"spans"`
}

// TracesResponse is the JSON shape of a /debug/traces reply.
type TracesResponse struct {
	// Traces holds the retained completed traces, newest first.
	Traces []TraceJSON `json:"traces"`
	// Spans, CompletedTraces, and DroppedSpans are the tracer's
	// lifetime counters.
	Spans           uint64 `json:"spans_total"`
	CompletedTraces uint64 `json:"traces_total"`
	DroppedSpans    uint64 `json:"dropped_spans_total"`
}

// Snapshot renders the retained traces, newest first. This is where
// ids, attribute values and timings are formatted.
func (t *Tracer) Snapshot() TracesResponse {
	t.mu.Lock()
	ring := make([]*traceData, t.held)
	for i := range ring {
		ring[i] = t.ring[(t.next-1-i+2*len(t.ring))%len(t.ring)]
	}
	t.mu.Unlock()
	resp := TracesResponse{
		Traces:          make([]TraceJSON, 0, len(ring)),
		Spans:           t.spansTotal.Load(),
		CompletedTraces: t.tracesTotal.Load(),
		DroppedSpans:    t.droppedTotal.Load(),
	}
	for _, td := range ring {
		td.mu.Lock()
		finished := append([]*Span(nil), td.spans...)
		dropped := td.dropped
		td.mu.Unlock()
		spans := make([]SpanRecord, len(finished))
		for i, s := range finished {
			spans[i] = td.render(s)
		}
		resp.Traces = append(resp.Traces, TraceJSON{
			TraceID:        td.traceID.String(),
			Root:           td.root.name,
			Remote:         td.remote,
			EndedAt:        td.endedAt,
			DurationMicros: td.root.dur.Microseconds(),
			DroppedSpans:   dropped,
			Spans:          spans,
		})
	}
	return resp
}

// Handler serves the completed-trace ring as JSON — GET /debug/traces.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(t.Snapshot())
	})
}

// Inject writes the span's context into h as a W3C traceparent header,
// so the receiving process can continue the trace. No-op for a nil
// span.
func Inject(span *Span, h http.Header) {
	if span == nil {
		return
	}
	h.Set(TraceParentHeader, fmt.Sprintf("00-%s-%s-01", span.TraceID(), span.SpanID()))
}

// Extract parses a W3C traceparent header ("00-<32 hex trace
// id>-<16 hex span id>-<2 hex flags>"). ok is false for a missing or
// malformed header, or all-zero ids (invalid per the spec).
func Extract(h http.Header) (traceID TraceID, parent SpanID, ok bool) {
	var v string
	if vs := h[traceParentKey]; len(vs) > 0 {
		v = vs[0]
	}
	// Fixed layout: 2+1+32+1+16+1+2 = 55 bytes.
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	if v[0] != '0' || v[1] != '0' {
		// Only version 00 is understood; a future version may change the
		// field layout, so refuse rather than misparse.
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(traceID[:], []byte(v[3:35])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(parent[:], []byte(v[36:52])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(make([]byte, 1), []byte(v[53:55])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if traceID.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return traceID, parent, true
}

// ID generation: a process-global counter whitened with a random
// per-process key. crypto/rand per span would dominate the span's own
// cost on the ingest hot path; a seeded SplitMix64 stream is
// collision-free within a process and the 64-bit random offset makes
// cross-process collisions vanishingly unlikely.
var (
	idKey uint64
	idCtr atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock; ids stay unique in-process through the
		// counter either way.
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	idKey = binary.LittleEndian.Uint64(b[:])
}

// next64 returns the next whitened 64-bit id word (SplitMix64).
func next64() uint64 {
	z := idKey + idCtr.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // all-zero ids are invalid per W3C trace-context
	}
	return z
}

func newTraceID() TraceID {
	var t TraceID
	binary.LittleEndian.PutUint64(t[:8], next64())
	binary.LittleEndian.PutUint64(t[8:], next64())
	return t
}

func newSpanID() SpanID {
	var s SpanID
	binary.LittleEndian.PutUint64(s[:], next64())
	return s
}
