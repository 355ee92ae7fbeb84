package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
)

// nopResponseWriter discards the reply so the benchmark measures the
// handler, not a recorder's buffer growth.
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// BenchmarkHandlerBatchIngest drives POST /report/batch through the full
// HTTP handler (admission, decode, chunk loop, sharded consume) with
// an in-process ServeHTTP call — the ingest hot path whose overhead the
// observability layer must keep within noise of the uninstrumented
// baseline.
func BenchmarkHandlerBatchIngest(b *testing.B) {
	const batchSize = 256
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewWithOptions(p, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	client := p.NewClient()
	r := rng.New(77)
	reps := make([]core.Report, batchSize)
	for i := range reps {
		rep, err := client.Perturb(uint64(i)%256, r)
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = rep
	}
	body, err := encoding.MarshalBatch(p.Name(), reps)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rd := bytes.NewReader(nil)
		for pb.Next() {
			rd.Reset(body)
			req := httptest.NewRequest(http.MethodPost, "/report/batch", rd)
			w := &nopResponseWriter{h: make(http.Header)}
			h.ServeHTTP(w, req)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batchSize/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkHandlerSingleIngest is the same measurement for the one-report
// POST /report path.
func BenchmarkHandlerSingleIngest(b *testing.B) {
	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 2})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewWithOptions(p, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	client := p.NewClient()
	rep, err := client.Perturb(3, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	frame, err := encoding.Marshal(p.Name(), rep)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rd := bytes.NewReader(nil)
		for pb.Next() {
			rd.Reset(frame)
			req := httptest.NewRequest(http.MethodPost, "/report", rd)
			w := &nopResponseWriter{h: make(http.Header)}
			h.ServeHTTP(w, req)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N), "requests")
}
