package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/server"
	"ldpmarginals/internal/store"
)

// scratchRoot is where data directories and span files go: inside the
// directory the benchmark was started from, never elsewhere.
const scratchRoot = ".bench_build"

// node is one ldpserver's worth of deployment run in-process: the same
// store.Open -> server.NewWithOptions -> http.Server sequence as
// cmd/ldpserver, on a loopback listener.
type node struct {
	srv    *server.Server
	httpd  *http.Server
	url    string
	served chan error
}

// startNode serves handler (normally srv.Handler(), possibly wrapped)
// on a fresh 127.0.0.1 listener with cmd/ldpserver's timeouts.
func startNode(srv *server.Server, handler http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		srv: srv,
		httpd: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       2 * time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { n.served <- n.httpd.Serve(ln) }()
	return n, nil
}

// stop drains the listener, waits for Serve to return, and closes the
// server (flushing its store, if any).
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.httpd.Shutdown(ctx)
	<-n.served
	if n.srv != nil {
		if cerr := n.srv.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// swapHandler forwards to whichever handler was stored last, so the
// full-pull phase can put a fresh coordinator behind one listener (and
// one client connection) per cycle.
type swapHandler struct{ cur atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.cur.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.cur.Load()).ServeHTTP(w, r)
}

// deployment is a workload's whole fleet.
type deployment struct {
	h *harness

	ingest  []*node // the RoleSingle node, or the RoleEdge nodes
	coord   *node   // the long-lived coordinator (delta pulls)
	serving *node   // answers /query, /refresh, /marginal: the single node, or coord
	// fresh is the listener the full-pull phase serves its per-cycle
	// coordinators on.
	fresh     *node
	freshSwap *swapHandler

	dataDir string
}

func protocolFor(w workload) (core.Protocol, error) {
	return core.New(w.kind, core.Config{D: w.d, K: w.k, Epsilon: math.Log(3), OptimizedPRR: true})
}

// stateMeter wraps an ingest node's handler: it counts the body bytes of
// every /state reply, and in a traced round records each as a child of
// the pull that caused it.
func (h *harness) stateMeter(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/state" {
			next.ServeHTTP(w, r)
			return
		}
		rec := h.rec.Load()
		id := rec.begin(int(h.pullSpan.Load()), "server.state")
		cw := &countingWriter{ResponseWriter: w, total: &h.stateBytes}
		next.ServeHTTP(cw, r)
		rec.end(id, 1, cw.n)
	})
}

// countingWriter adds every body byte to total before handing it to the
// connection: the puller can have read the whole reply, and the pull it
// belongs to can have been accounted, before the Write call that sent
// the last of it returns here.
type countingWriter struct {
	http.ResponseWriter
	n     int64
	total *atomic.Int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.total.Add(int64(len(b)))
	n, err := c.ResponseWriter.Write(b)
	c.total.Add(int64(n - len(b))) // a short write gives the rest back
	c.n += int64(n)
	return n, err
}

// deploy builds the workload's fleet from nothing: open the store (when
// durable), construct every server with its initial epoch, and start the
// listeners. Nothing is preloaded yet.
func (h *harness) deploy(dataDir string) (*deployment, error) {
	w, p := h.w, h.p
	d := &deployment{h: h, dataDir: dataDir}
	ok := false
	defer func() {
		if !ok {
			d.stop()
		}
	}()

	role, ids := server.RoleSingle, []string{"single-0"}
	if w.edges > 0 {
		role, ids = server.RoleEdge, make([]string, w.edges)
		for i := range ids {
			ids[i] = "edge-" + strconv.Itoa(i)
		}
	}
	var peers []string
	for _, id := range ids {
		opts := server.Options{Role: role, NodeID: id, Shards: w.shards}
		if w.durable {
			st, err := store.Open(filepath.Join(dataDir, id), p, store.Options{
				Fsync:          store.FsyncInterval,
				SnapshotEveryN: 1 << 20,
			})
			if err != nil {
				return nil, err
			}
			opts.Store = st
		}
		srv, err := server.NewWithOptions(p, opts)
		if err != nil {
			return nil, err
		}
		n, err := startNode(srv, h.stateMeter(srv.Handler()))
		if err != nil {
			srv.Close()
			return nil, err
		}
		d.ingest = append(d.ingest, n)
		peers = append(peers, n.url)
	}

	coord, err := d.newCoordinator(peers)
	if err != nil {
		return nil, err
	}
	if d.coord, err = startNode(coord, coord.Handler()); err != nil {
		coord.Close()
		return nil, err
	}
	d.serving = d.coord
	if w.edges == 0 {
		d.serving = d.ingest[0]
	}

	d.freshSwap = &swapHandler{}
	d.freshSwap.set(http.NotFoundHandler())
	if d.fresh, err = startNode(nil, d.freshSwap); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// newCoordinator constructs a coordinator over the ingest nodes that
// pulls only when told to (POST /pull).
func (d *deployment) newCoordinator(peers []string) (*server.Server, error) {
	return server.NewWithOptions(d.h.p, server.Options{
		Role:         server.RoleCoordinator,
		NodeID:       "coord",
		Peers:        peers,
		PullInterval: time.Hour,
		Shards:       d.h.w.shards,
	})
}

func (d *deployment) peerURLs() []string {
	urls := make([]string, len(d.ingest))
	for i, n := range d.ingest {
		urls[i] = n.url
	}
	return urls
}

// stop shuts every listener and server down. Safe on a partly built
// deployment.
func (d *deployment) stop() error {
	var first error
	for _, n := range append([]*node{d.fresh, d.coord}, d.ingest...) {
		if n == nil {
			continue
		}
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	d.fresh, d.coord, d.ingest = nil, nil, nil
	return first
}

// newDataDir creates a private directory for one deployment's stores
// under the scratch root.
func newDataDir(tag string) (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(scratchRoot, fmt.Sprintf("data-%s-", tag))
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
