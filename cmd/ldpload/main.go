// Command ldpload drives synthetic report traffic at a running
// ldpserver and records throughput and latency percentiles, so ingest
// capacity can be measured (and guarded in CI) against the real HTTP
// stack instead of in-process microbenchmarks.
//
// Usage:
//
//	ldpload -addr http://127.0.0.1:8080 -protocol InpHT -d 8 -k 2 -eps 1.1 \
//	    -clients 8 -batch 256 -duration 10s -rate 0 -zipf 1.1 \
//	    -out BENCH_load.json
//
// Each of -clients workers posts pre-generated report batches
// (-batch reports per request; -batch 1 posts single frames to
// /report instead of /report/batch). Attribute values are drawn
// zipf-skewed with exponent -zipf over the 2^d input domain (0 =
// uniform), matching the skewed populations real deployments see.
//
// With -rate 0 the run is closed-loop: every worker issues its next
// request the moment the previous one completes, measuring the
// server's saturation throughput. A positive -rate targets that many
// reports per second across all workers in an open loop: requests are
// placed on a fixed schedule and each latency is measured from its
// *scheduled* start, so queueing delay from a server that falls
// behind is charged to the measurement instead of being silently
// dropped (the coordinated-omission trap).
//
// The JSON report (written to -out, or stdout with -out -) records
// throughput, latency percentiles (p50/p95/p99 interpolated from a
// high-resolution histogram), and a status-class breakdown; transport
// failures and non-2xx replies never abort the run — they are what an
// overload experiment is trying to count.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ldpmarginals"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/metrics"
	"ldpmarginals/internal/rng"
)

// LoadReport is the JSON shape of a run's results, consumed by
// cmd/benchguard's load mode.
type LoadReport struct {
	Recorded    string  `json:"recorded"`
	Go          string  `json:"go"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Command     string  `json:"command"`
	Protocol    string  `json:"protocol"`
	Mode        string  `json:"mode"` // "closed" or "open"
	Clients     int     `json:"clients"`
	BatchSize   int     `json:"batch_reports"`
	Zipf        float64 `json:"zipf"`
	Duration    float64 `json:"duration_seconds"`
	Requests    uint64  `json:"requests"`
	Reports     uint64  `json:"reports"`         // carried by 2xx replies only
	ReportsSec  float64 `json:"reports_per_sec"` // Reports / Duration
	RequestsSec float64 `json:"requests_per_sec"`

	Latency LatencySummary `json:"latency_seconds"`
	Status  StatusCounts   `json:"status"`

	Notes string `json:"notes,omitempty"`
}

// LatencySummary is the run's latency distribution in seconds. Open-loop
// latencies are measured from the scheduled send time.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// StatusCounts breaks replies down by class; 429 (shed or over-budget)
// is split out of 4xx because it is the signal overload experiments
// look for.
type StatusCounts struct {
	OK2xx       uint64 `json:"2xx"`
	Shed429     uint64 `json:"429"`
	Other4xx    uint64 `json:"4xx"`
	Err5xx      uint64 `json:"5xx"`
	Transport   uint64 `json:"errors"`
	SampleError string `json:"sample_error,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldpload: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses the command line, drives the load and writes the report.
func run(args []string) error {
	fs := flag.NewFlagSet("ldpload", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8080", "server base URL")
		protocol = fs.String("protocol", "InpHT", "protocol name (must match the server)")
		d        = fs.Int("d", 8, "number of binary attributes")
		k        = fs.Int("k", 2, "largest marginal size supported")
		eps      = fs.Float64("eps", math.Log(3), "privacy budget epsilon")
		clients  = fs.Int("clients", 8, "concurrent workers")
		batch    = fs.Int("batch", 256, "reports per request (1 = single-frame POST /report)")
		duration = fs.Duration("duration", 10*time.Second, "measured run length")
		warmup   = fs.Duration("warmup", 1*time.Second, "unmeasured warmup before the run")
		rate     = fs.Float64("rate", 0, "target reports/s across all workers (0 = closed loop)")
		zipf     = fs.Float64("zipf", 1.1, "zipf exponent for attribute values, > 1 (0 = uniform)")
		pregen   = fs.Int("pregen", 64, "distinct request bodies generated up front")
		token    = fs.String("token", "", "X-LDP-Token header value (required by servers with -round-eps)")
		seed     = fs.Int64("seed", 1, "value-generation seed")
		out      = fs.String("out", "-", "result JSON path (- = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 || *batch < 1 || *pregen < 1 {
		return fmt.Errorf("-clients, -batch, and -pregen must be positive")
	}
	if *zipf != 0 && *zipf <= 1 {
		return fmt.Errorf("-zipf must be > 1 (or 0 for uniform values)")
	}

	cfg := ldpmarginals.Config{D: *d, K: *k, Epsilon: *eps, OptimizedPRR: true}
	p, err := ldpmarginals.ProtocolByName(*protocol, cfg)
	if err != nil {
		return err
	}
	// Refuse an unserved protocol by name before generating a body.
	if _, err := encoding.TagForProtocol(p.Name()); err != nil {
		return err
	}
	bodies, err := genBodies(p, *batch, *pregen, *zipf, *seed)
	if err != nil {
		return err
	}
	path := *addr + "/report/batch"
	if *batch == 1 {
		path = *addr + "/report"
	}

	transport := &http.Transport{MaxIdleConnsPerHost: *clients, MaxConnsPerHost: 0}
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}

	// High-resolution latency histogram: 120µs..~80s in 5%/bucket steps
	// keeps interpolation error on the reported percentiles under the
	// bucket ratio everywhere in the range a load test can produce.
	lat := metrics.NewHistogram(metrics.ExpBuckets(0.00012, 1.05, 280))
	var st StatusCounts
	var maxLatBits atomic.Uint64
	var sampleErr atomic.Pointer[string]

	shoot := func(body []byte, started time.Time) {
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		if *token != "" {
			req.Header.Set("X-LDP-Token", *token)
		}
		resp, err := client.Do(req)
		el := time.Since(started).Seconds()
		lat.Observe(el)
		for {
			old := maxLatBits.Load()
			if el <= math.Float64frombits(old) || maxLatBits.CompareAndSwap(old, math.Float64bits(el)) {
				break
			}
		}
		if err != nil {
			atomic.AddUint64(&st.Transport, 1)
			msg := err.Error()
			sampleErr.CompareAndSwap(nil, &msg)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode < 300:
			atomic.AddUint64(&st.OK2xx, 1)
		case resp.StatusCode == http.StatusTooManyRequests:
			atomic.AddUint64(&st.Shed429, 1)
		case resp.StatusCode < 500:
			atomic.AddUint64(&st.Other4xx, 1)
			msg := fmt.Sprintf("status %d", resp.StatusCode)
			sampleErr.CompareAndSwap(nil, &msg)
		default:
			atomic.AddUint64(&st.Err5xx, 1)
			msg := fmt.Sprintf("status %d", resp.StatusCode)
			sampleErr.CompareAndSwap(nil, &msg)
		}
	}

	// Warmup primes connections and the server's first epoch outside the
	// measurement.
	if *warmup > 0 {
		wend := time.Now().Add(*warmup)
		var wg sync.WaitGroup
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; time.Now().Before(wend); i++ {
					shoot(bodies[i%len(bodies)], time.Now())
				}
			}(c)
		}
		wg.Wait()
		lat.Reset()
		st = StatusCounts{}
		maxLatBits.Store(0)
		sampleErr.Store(nil)
	}

	mode := "closed"
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	if *rate > 0 {
		mode = "open"
		// The schedule hands out send slots at a fixed cadence; workers
		// sleep until their slot and charge any backlog to the latency.
		interval := time.Duration(float64(*batch) / *rate * float64(time.Second))
		if interval <= 0 {
			return fmt.Errorf("-rate %g with -batch %d schedules requests faster than 1ns apart", *rate, *batch)
		}
		var slot atomic.Int64
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; ; i++ {
					due := start.Add(time.Duration(slot.Add(1)-1) * interval)
					if due.After(deadline) {
						return
					}
					time.Sleep(time.Until(due))
					shoot(bodies[i%len(bodies)], due)
				}
			}(c)
		}
	} else {
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; time.Now().Before(deadline); i++ {
					shoot(bodies[i%len(bodies)], time.Now())
				}
			}(c)
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	transport.CloseIdleConnections()

	// Only a 2xx reply carries reports into the server: shed, refused and
	// failed requests count as requests but not as throughput.
	requests := lat.Count()
	reports := st.OK2xx * uint64(*batch)
	if msg := sampleErr.Load(); msg != nil {
		st.SampleError = *msg
	}
	rep := LoadReport{
		Recorded:   time.Now().Format("2006-01-02"),
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Command: fmt.Sprintf("ldpload -addr %s -protocol %s -d %d -k %d -eps %.4g -clients %d -batch %d -duration %s -rate %g -zipf %g",
			*addr, *protocol, *d, *k, *eps, *clients, *batch, *duration, *rate, *zipf),
		Protocol:    fmt.Sprintf("%s d=%d k=%d eps=%.4g", p.Name(), *d, *k, *eps),
		Mode:        mode,
		Clients:     *clients,
		BatchSize:   *batch,
		Zipf:        *zipf,
		Duration:    elapsed,
		Requests:    requests,
		Reports:     reports,
		ReportsSec:  float64(reports) / elapsed,
		RequestsSec: float64(requests) / elapsed,
		Latency: LatencySummary{
			P50:  lat.Quantile(0.50),
			P95:  lat.Quantile(0.95),
			P99:  lat.Quantile(0.99),
			Mean: lat.Sum() / math.Max(float64(requests), 1),
			Max:  math.Float64frombits(maxLatBits.Load()),
		},
		Status: st,
	}
	if mode == "open" {
		rep.Notes = "open-loop latencies are measured from the scheduled send time (coordinated-omission aware)"
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s: %.0f reports/s, p50 %.1fms p99 %.1fms, %d requests (%d shed, %d errors)",
		*out, rep.ReportsSec, rep.Latency.P50*1e3, rep.Latency.P99*1e3, requests, st.Shed429, st.Err5xx+st.Transport)
	return nil
}

// genBodies pre-marshals n distinct request bodies of batch reports
// each, with input values drawn zipf-skewed (exponent s; 0 = uniform)
// over the 2^d attribute domain. Generation happens before the clock
// starts so the measured path is pure HTTP + server work.
func genBodies(p ldpmarginals.Protocol, batch, n int, s float64, seed int64) ([][]byte, error) {
	d := p.Config().D
	domain := uint64(1) << d
	src := rand.New(rand.NewSource(seed))
	var nextVal func() uint64
	if s > 1 {
		z := rand.NewZipf(src, s, 1, domain-1)
		nextVal = z.Uint64
	} else {
		nextVal = func() uint64 { return src.Uint64() & (domain - 1) }
	}
	cl := p.NewClient()
	r := rng.New(uint64(seed))
	bodies := make([][]byte, n)
	for i := range bodies {
		if batch == 1 {
			rep, err := cl.Perturb(nextVal(), r)
			if err != nil {
				return nil, err
			}
			frame, err := encoding.Marshal(p.Name(), rep)
			if err != nil {
				return nil, err
			}
			bodies[i] = frame
			continue
		}
		reps := make([]ldpmarginals.Report, batch)
		for j := range reps {
			rep, err := cl.Perturb(nextVal(), r)
			if err != nil {
				return nil, err
			}
			reps[j] = rep
		}
		body, err := encoding.MarshalBatch(p.Name(), reps)
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}
