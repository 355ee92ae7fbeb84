package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/fault"
	"ldpmarginals/internal/metrics"
	"ldpmarginals/internal/store"
	"ldpmarginals/internal/trace"
	"ldpmarginals/internal/window"
)

// ingestPipeline is the write side of a deployment: the window ring
// reports land in and the optional durable store wired in front of it.
// Roles that ingest (single, edge) run one.
type ingestPipeline struct {
	ring      *window.Ring
	st        *store.Store // nil for a memory-only deployment
	recovered int          // reports restored from the store at startup
	maxBatch  int64        // maxBatchBytes; a test lowers it to exercise the limit
}

// newIngestPipeline seeds the node's ring with the state the store
// recovered and registers it as the store's source — a windowed ring
// also as the store's bucket layout.
func (s *Server) newIngestPipeline(opts Options) (*ingestPipeline, error) {
	recovered := 0
	if st := opts.Store; st != nil {
		// Seed the live pipeline before the engine builds its first
		// epoch, so recovered reports are served immediately; then let the
		// store drop its copy. Snapshots hold only the live bucket: a
		// windowed ring's sealed buckets are persisted one file each.
		live, _ := st.Recovered()
		if err := s.ring.Restore(st.RecoveredLayout(), live); err != nil {
			return nil, fmt.Errorf("server: seeding recovered state: %w", err)
		}
		st.SetSource(s.ring.LiveSnapshot)
		if s.windowed() {
			if err := st.SetWindow(s.ring.Layout); err != nil {
				return nil, fmt.Errorf("server: seeding recovered state: %w", err)
			}
		}
		recovered = s.ring.N()
		st.ReleaseRecovered()
	}
	return &ingestPipeline{ring: s.ring, st: opts.Store, recovered: recovered, maxBatch: maxBatchBytes}, nil
}

// admission is the ingest endpoints' one gate: a bounded in-flight slot
// pool with a bounded wait queue in front of it. A request beyond both
// bounds is shed immediately with 429 + Retry-After instead of piling
// up another goroutine — under overload the server degrades by refusing
// work it could not finish anyway, and the shed counter makes the
// refusal observable. A slot covers a request's body, its decoded
// reports and its chunks, so the slots bound ingest memory too.
type admission struct {
	slots    chan struct{} // capacity = max in-flight ingest requests
	queued   atomic.Int64
	maxQueue int64
}

// ingestQueuePerShard is how many ingest requests may wait per shard
// for an in-flight slot before arrivals are shed.
const ingestQueuePerShard = 64

// newAdmission sizes the gate from the shard count: one in-flight
// request per shard and ingestQueuePerShard waiting per shard.
func newAdmission(shards int) *admission {
	return &admission{slots: make(chan struct{}, shards), maxQueue: int64(ingestQueuePerShard * shards)}
}

// acquire claims an in-flight slot, waiting in the bounded queue when
// the pool is full. It returns false when the queue is full too (shed)
// or the client gave up while queued.
func (a *admission) acquire(r *http.Request) bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		return false
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return true
	case <-r.Context().Done():
		// The client disconnected while queued; nothing to admit.
		return false
	}
}

func (a *admission) release() { <-a.slots }

// shed answers a request refused by admission control: 429 with an
// explicit Retry-After, counted per endpoint.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, counter *metrics.Counter) {
	counter.Inc()
	w.Header().Set("Retry-After", "1")
	httpError(w, r, "ingest at capacity; retry with backoff", http.StatusTooManyRequests)
}

// FaultIngestAdmit is the ingest admission fault-injection site: an
// error rule forces a 429 shed, as a full admission queue would.
const FaultIngestAdmit = "server.ingest.admit"

// admit claims an ingest admission slot inside an "ingest.admission"
// span, so time spent waiting in the bounded queue is visible on the
// request's trace. On false the request has already been answered
// (shed with 429); on true the caller must release the slot.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, shedCounter *metrics.Counter) bool {
	_, span := trace.StartSpan(r.Context(), "ingest.admission")
	ok := fault.Hit(FaultIngestAdmit) == nil && s.adm.acquire(r)
	span.SetBool("admitted", ok)
	span.End()
	if !ok {
		s.shed(w, r, shedCounter)
	}
	return ok
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.serveIngest(w, r, s.ins.shedReport, s.readReport, replyReport)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.serveIngest(w, r, s.ins.shedBatch, s.readBatch, s.replyBatch)
}

// serveIngest is the one path of both ingest endpoints, past the route's
// method and role gates: the health gate, admission, then read — the
// endpoint's own body read and decode into the pooled workspace, which
// answers the request itself when it returns false — the budget charge,
// the batch's chunks in order and the counters, and reply with the
// outcome. accepted is exactly the reports before the first rejected
// one, whose own error err then is, or, when the store failed
// (persistFailed), exactly what the aggregator consumed.
func (s *Server) serveIngest(w http.ResponseWriter, r *http.Request, shed *metrics.Counter,
	read func(http.ResponseWriter, *http.Request, *batchBuffers) bool,
	reply func(w http.ResponseWriter, r *http.Request, b *batchBuffers, accepted int, persistFailed bool, err error)) {
	in := s.ingest
	if !s.admitHealthy(w, r) || !s.admit(w, r, shed) {
		return
	}
	defer s.adm.release()
	bufs := batchBufPool.Get().(*batchBuffers)
	bodyHandedToWAL := false
	defer func() {
		if bodyHandedToWAL {
			// The durable store's committer may still reference body
			// slices after the handler returns (group commit); hand the
			// buffer over instead of recycling it.
			bufs.body = nil
		}
		putBatchBuffers(bufs)
	}()
	if !read(w, r, bufs) {
		return
	}
	// The whole batch is charged atomically before any chunk is
	// ingested: a batch the budget cannot cover is rejected in full,
	// never partially ingested.
	if !s.chargeBudget(w, r, len(bufs.reps)) {
		return
	}
	// From here on the store may hold slices of body past this request.
	bodyHandedToWAL = in.st != nil
	accepted, persistFailed, err := in.ingestBatch(r.Context(), bufs.reps, bufs.body, bufs.ends)
	s.ins.ingestReports.Add(uint64(accepted))
	if err != nil {
		s.ins.rejectedReports.Add(uint64(len(bufs.reps) - accepted))
	}
	reply(w, r, bufs, accepted, persistFailed, err)
}

// readReport reads one /report frame into b.frame and lays it out as a
// batch of one: b.body is the frame behind its length prefix, the bytes
// (and so the WAL record) of a one-frame /report/batch body.
func (s *Server) readReport(w http.ResponseWriter, r *http.Request, b *batchBuffers) bool {
	frame, err := readBodyInto(r.Body, maxReportBytes, b.frame)
	b.frame = frame
	if err != nil {
		httpError(w, r, "reading body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if len(frame) > maxReportBytes {
		httpError(w, r, "report too large", http.StatusRequestEntityTooLarge)
		return false
	}
	tag, rep, err := encoding.Unmarshal(frame)
	if err != nil {
		httpError(w, r, "malformed report: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if tag != s.tag {
		httpError(w, r, fmt.Sprintf("report for protocol tag %d, deployment runs %d", tag, s.tag), http.StatusBadRequest)
		return false
	}
	b.body = encoding.AppendFrame(b.body[:0], frame)
	b.reps = append(b.reps[:0], rep)
	b.ends = append(b.ends[:0], len(b.body))
	return true
}

// replyReport answers /report: 204 once the report is counted.
func replyReport(w http.ResponseWriter, r *http.Request, _ *batchBuffers, _ int, persistFailed bool, err error) {
	switch {
	case persistFailed:
		// Consumed but not durably logged: a server fault, not a client
		// one. The report is in memory and the next snapshot captures
		// it, but the durability promise of the ack cannot be made.
		httpError(w, r, "persistence failed: "+err.Error(), http.StatusInternalServerError)
	case err != nil:
		httpError(w, r, "rejected: "+err.Error(), http.StatusBadRequest)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// readBatch reads and decodes a /report/batch body into b.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request, b *batchBuffers) bool {
	limit := s.ingest.maxBatch
	body, err := readBodyInto(r.Body, limit, sizedBody(b.body, r.ContentLength, limit))
	b.body = body
	if err != nil {
		httpError(w, r, "reading body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if int64(len(body)) > limit {
		httpError(w, r, "batch too large", http.StatusRequestEntityTooLarge)
		return false
	}
	tag, reps, ends, err := encoding.UnmarshalBatchEndsInto(body, maxBatchReports, b.reps, b.ends)
	if err != nil {
		httpError(w, r, "malformed batch: "+err.Error(), http.StatusBadRequest)
		return false
	}
	b.reps, b.ends = reps, ends
	if tag != s.tag {
		httpError(w, r, fmt.Sprintf("batch for protocol tag %d, deployment runs %d", tag, s.tag), http.StatusBadRequest)
		return false
	}
	return true
}

// replyBatch answers /report/batch with a BatchResponse.
func (s *Server) replyBatch(w http.ResponseWriter, r *http.Request, b *batchBuffers, accepted int, persistFailed bool, err error) {
	if err != nil {
		// The failure reply still carries the exact accepted count so
		// the client knows how much of the batch is in the estimate.
		// Report rejections are the client's fault (400), named by their
		// batch index, which is the accepted count; persistence failures
		// are the server's (500) and must not invite a retry that would
		// double-count the already-consumed reports.
		status, msg := http.StatusBadRequest, fmt.Sprintf("rejected: batch report %d: %v", accepted, err)
		if persistFailed {
			status, msg = http.StatusInternalServerError, "persistence failed: "+err.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(BatchResponse{
			Accepted: accepted,
			Error:    msg,
			TraceID:  traceID(r),
		})
		return
	}
	s.ins.ingestBatches.Inc()
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(appendAcceptedReply(b.reply[:0], accepted))
}

// ingestBatch feeds a decoded batch to the ring in chunks of
// batchChunk, in order on the calling goroutine, each under one shard
// lock and with its own WAL record, and returns once all of it is
// ingested — so a 200 means the reports are counted. It stops at the
// first failure, so accepted is always exactly the reports before it:
// on a report rejection err is that report's own error and its batch
// index is accepted; persistFailed says the store failed instead (the
// reports it consumed are in the aggregator, but the durability promise
// of a 200 cannot be made — a server fault, not a client one).
func (in *ingestPipeline) ingestBatch(ctx context.Context, reps []core.Report, body []byte, ends []int) (accepted int, persistFailed bool, err error) {
	for lo := 0; lo < len(reps) && err == nil; lo += batchChunk {
		var n int
		n, err = in.ingestChunk(ctx, reps, body, ends, lo, min(lo+batchChunk, len(reps)))
		accepted += n
	}
	if be := batchError(err); be != nil {
		return accepted, false, be.Err
	}
	return accepted, err != nil, err
}

// batchError returns err's report rejection, or nil for any other error
// and for nil.
func batchError(err error) *core.BatchError {
	if err == nil {
		return nil
	}
	var be *core.BatchError
	errors.As(err, &be)
	return be
}

// ingestChunk feeds the decoded chunk reps[lo:hi] into the sharded
// aggregator — through the store's consume+log pair when the deployment
// is durable, so the accepted prefix of the chunk is in the WAL before
// the handler acks. The logged payload is the chunk's slice of the
// request body (body and ends as returned by UnmarshalBatchEnds): the
// validated wire bytes verbatim.
//
// The returned count is how many of the chunk's reports entered the
// aggregator, regardless of the error: on a report rejection it is the
// accepted prefix, and on a WAL failure (which can mask a rejection)
// it is still exactly what the aggregator consumed.
func (in *ingestPipeline) ingestChunk(ctx context.Context, reps []core.Report, body []byte, ends []int, lo, hi int) (int, error) {
	chunk, start, applied := reps[lo:hi], 0, 0
	if lo > 0 {
		start = ends[lo-1]
	}
	consume := func() (int, int, error) {
		err := in.ring.ConsumeBatch(chunk)
		if err == nil {
			applied = len(chunk)
		} else if be := batchError(err); be != nil {
			applied = be.Index
		}
		if applied == 0 {
			return 0, 0, err
		}
		return applied, ends[lo+applied-1] - start, err
	}
	var err error
	if in.st == nil {
		_, _, err = consume()
	} else {
		err = in.st.IngestContext(ctx, body[start:ends[hi-1]], consume)
	}
	return applied, err
}

// batchBuffers is one ingest request's reusable workspace: the raw body
// and the decoded record slices. Pooled so steady-state ingest
// stops allocating per request — the decoded []core.Report alone is an
// order of magnitude larger than a typical body. Only slice headers are
// reused; per-report payloads are freshly decoded (see
// encoding.UnmarshalBatchEndsInto), so nothing an aggregator could have
// retained is ever overwritten.
type batchBuffers struct {
	body  []byte
	frame []byte // a /report frame before its length prefix
	reps  []core.Report
	ends  []int
	reply [32]byte // room for the all-accepted reply
}

var batchBufPool = sync.Pool{New: func() any { return new(batchBuffers) }}

// The pool keeps a workspace only while it is the size ordinary
// requests need: a few chunks of decoded reports and 1/16 of the default
// body limit. Anything larger — one maxBatchReports batch grows reps and
// ends to ~56 MiB — is left to the collector instead of riding in the
// pool for the life of the process.
const (
	maxPooledReports   = 4 * batchChunk
	maxPooledBodyBytes = maxBatchBytes / 16
)

// putBatchBuffers returns b to the pool unless a request grew it past
// what the pool keeps.
func putBatchBuffers(b *batchBuffers) {
	if cap(b.reps) > maxPooledReports || cap(b.ends) > maxPooledReports || cap(b.body) > maxPooledBodyBytes {
		return
	}
	batchBufPool.Put(b)
}

// sizedBody returns buf, or a fresh buffer when buf cannot hold a body
// of the declared length without growing: contentLength bytes (at most
// limit, past which the request is refused anyway) plus the one spare
// byte the read that reports EOF needs. An undeclared length (-1,
// chunked encoding) leaves sizing to readBodyInto's growth loop.
func sizedBody(buf []byte, contentLength, limit int64) []byte {
	if want := min(contentLength, limit) + 1; int64(cap(buf)) < want {
		return make([]byte, 0, want)
	}
	return buf
}

// readBodyInto reads r (bounded by limit+1 bytes) into buf, growing it
// as needed and returning the filled slice — io.ReadAll over a reusable
// buffer.
func readBodyInto(r io.Reader, limit int64, buf []byte) ([]byte, error) {
	lr := io.LimitReader(r, limit+1)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// BatchResponse is the JSON shape of a /report/batch reply — both the
// 200 success reply and the 400 rejection reply. On rejection, Accepted
// is exactly the reports before the first rejected one, and Error
// describes that report by its batch-global index. Clients should treat
// Accepted as authoritative and not blindly re-post a failed batch.
type BatchResponse struct {
	// Accepted is the number of reports ingested from the batch.
	Accepted int `json:"accepted"`
	// Error is the rejection reason; empty on success.
	Error string `json:"error,omitempty"`
	// TraceID is the request's trace id, set on rejection replies so a
	// client-side failure report can be joined against the server's
	// /debug/traces ring and logs.
	TraceID string `json:"trace_id,omitempty"`
}

// appendAcceptedReply appends the reply to an all-accepted batch of n
// reports: the bytes json.Encoder writes for BatchResponse{Accepted: n},
// built without reflection.
func appendAcceptedReply(dst []byte, n int) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "}\n"...)
}
