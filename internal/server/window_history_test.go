package server

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/store"
)

// Every served protocol runs historySeeds histories of historySteps
// steps.
const (
	historySeeds = 8
	historySteps = 24
)

// TestWindowedHistoryMatchesTwin runs seeded histories against a durable
// windowed node on a synthetic clock. The alphabet: ingest (accepted,
// rejected and empty batches), advance by 0, 1, 2 or 4 buckets (4 is
// past the whole three-bucket window), snapshot, and kill. A kill copies
// the newest node's data dir as it stands after the last ack and opens a
// new node on the copy; the first node keeps running as the never-killed
// twin. After every step the reopened node and the twin agree on /state,
// on the /status window block and on the served marginals. A failing
// seed prints its history.
func TestWindowedHistoryMatchesTwin(t *testing.T) {
	for i, p := range servedProtocols(t, clusterCfg) {
		base := uint64(i+1) * 100 // by Table 2 position; InpRR, at 0, is not served
		t.Run(p.Name(), func(t *testing.T) {
			for seed := uint64(0); seed < historySeeds; seed++ {
				runWindowHistory(t, p, base+seed)
			}
		})
	}
}

func runWindowHistory(t *testing.T, p core.Protocol, seed uint64) {
	const bucket = 10 * time.Minute
	r := rng.New(seed)
	reps := makeClusterReports(t, p, 40*historySteps, seed)
	// The twin's grid starts just after base; every advance lands mid-bucket.
	base := time.Now()
	twin := openHistoryNode(t, p, t.TempDir())
	defer twin.close()
	var re *historyNode
	defer func() {
		if re != nil {
			re.close()
		}
	}()
	var history []string
	next, slot := 0, 0
	for step := 0; step < historySteps; step++ {
		nodes := []*historyNode{twin}
		if re != nil {
			nodes = append(nodes, re)
		}
		var did string
		switch k := r.Intn(10); {
		case k < 4:
			n := 1 + r.Intn(40)
			body := mustBatch(t, p, reps[next:next+n]...)
			next += n
			did = fmt.Sprintf("ingest %d reports", n)
			switch r.Intn(5) {
			case 0:
				body, did = body[:len(body)-1], fmt.Sprintf("ingest %d reports, last frame truncated", n)
			case 1:
				body, did = nil, "ingest an empty batch"
			}
			var codes []int
			for _, nd := range nodes {
				codes = append(codes, postBody(t, nd.ts.URL, body))
			}
			did += fmt.Sprintf(" (status %v)", codes)
		case k < 7:
			by := []int{0, 1, 1, 2, 4}[r.Intn(5)]
			slot += by
			did = fmt.Sprintf("advance %d buckets", by)
			now := base.Add(time.Duration(slot)*bucket + bucket/2)
			for _, nd := range nodes {
				if err := nd.s.advanceWindow(now); err != nil {
					t.Fatal(err)
				}
			}
		case k < 8:
			did = "snapshot"
			for _, nd := range nodes {
				if err := nd.s.Store().Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		default:
			did = "kill and reopen"
			dir := killCopy(t, nodes[len(nodes)-1].dir)
			if re != nil {
				re.close()
			}
			re = openHistoryNode(t, p, dir)
		}
		history = append(history, fmt.Sprintf("step %d: %s", step, did))
		if re == nil {
			continue
		}
		if want, got := observe(t, twin.ts.URL), observe(t, re.ts.URL); got != want {
			t.Fatalf("seed %d, step %d: reopened node %+v, never-killed twin %+v\nhistory:\n\t%s",
				seed, step, got, want, strings.Join(history, "\n\t"))
		}
	}
}

// historyNode is one durable windowed node of a generated history.
type historyNode struct {
	s   *Server
	ts  *httptest.Server
	dir string
}

// openHistoryNode opens a durable windowed node on dir: 10-minute
// buckets, so the wall-clock rotation never fires and only the history
// moves the ring, over a three-bucket window.
func openHistoryNode(t *testing.T, p core.Protocol, dir string) *historyNode {
	t.Helper()
	st, err := store.Open(dir, p, store.Options{Fsync: store.FsyncAlways, SnapshotEveryN: 50})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(p, Options{Window: 30 * time.Minute, Bucket: 10 * time.Minute, Store: st, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &historyNode{s: s, ts: httptest.NewServer(s.Handler()), dir: dir}
}

func (n *historyNode) close() {
	n.ts.Close()
	_ = n.s.Close()
}

// historyObs is what a reopened node and its twin must agree on.
type historyObs struct {
	N, SealedBuckets, SealedReports, LiveReports int
	State                                        [32]byte
	Marginals                                    [32]byte
}

func observe(t *testing.T, url string) historyObs {
	t.Helper()
	state, n := stateBytes(t, url)
	w := getStatus(t, url).Window
	postRefresh(t, url)
	ms := chaosMarginals(t, url)
	betas := make([]uint64, 0, len(ms))
	for beta := range ms {
		betas = append(betas, beta)
	}
	sort.Slice(betas, func(i, j int) bool { return betas[i] < betas[j] })
	var all strings.Builder
	for _, beta := range betas {
		all.WriteString(ms[beta])
	}
	return historyObs{
		N: n, SealedBuckets: w.SealedBuckets, SealedReports: w.SealedReports, LiveReports: w.LiveReports,
		State: sha256.Sum256(state), Marginals: sha256.Sum256([]byte(all.String())),
	}
}

// postBody posts a raw /report/batch body and returns the status.
func postBody(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url+"/report/batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// killCopy copies the data dir as it stands into a fresh one: a crash
// image after the last ack, since every ack waited for its fsync.
func killCopy(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if os.IsNotExist(err) {
			continue // a background snapshot pruned it meanwhile
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
