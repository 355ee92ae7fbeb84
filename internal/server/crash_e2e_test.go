package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/encoding"
	"ldpmarginals/internal/rng"
)

// buildLdpserver builds the ldpserver binary into a temporary directory
// and returns its path; short runs skip the test instead.
func buildLdpserver(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "ldpserver")
	build := exec.Command("go", "build", "-o", bin, "ldpmarginals/cmd/ldpserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ldpserver: %v\n%s", err, out)
	}
	return bin
}

// TestLdpserverRefusesBaselines: ldpserver -protocol InpRR, InpEM or
// InpOLH exits 1 at startup with the server's refusal, which names
// ldpmarg, whether or not -data-dir is set, and creates no data
// directory.
func TestLdpserverRefusesBaselines(t *testing.T) {
	bin := buildLdpserver(t)
	dataDir := filepath.Join(t.TempDir(), "x")
	for _, args := range [][]string{
		{"-protocol", "InpRR", "-data-dir", dataDir},
		{"-protocol", "InpRR"},
		{"-protocol", "InpEM", "-data-dir", dataDir},
		{"-protocol", "InpOLH"},
	} {
		cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), "ldpmarg") {
			t.Fatalf("ldpserver %v: %v, stderr %q; want exit status 1 naming ldpmarg", args, err, stderr.String())
		}
	}
	if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
		t.Fatalf("refused ldpserver touched -data-dir: stat %v", err)
	}
}

// TestCrashRecoveryE2E is the process-level durability proof: it builds
// the real ldpserver binary, SIGKILLs it mid-ingest, restarts it from
// the same -data-dir, and requires every acked report (and a /marginal
// answer over them) to survive. The in-process equivalents live in
// internal/store; this one exercises the actual deployment artifact.
func TestCrashRecoveryE2E(t *testing.T) {
	bin := buildLdpserver(t)

	dataDir := t.TempDir()
	addr := freeAddr(t)
	start := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", addr,
			"-protocol", "InpHT", "-d", "8", "-k", "2", "-eps", "1.1",
			"-data-dir", dataDir, "-fsync", "always",
			"-refresh-interval", "0",
		)
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting ldpserver: %v", err)
		}
		waitHealthy(t, addr)
		return cmd
	}
	srv := start()
	defer func() { _ = srv.Process.Kill() }()

	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(99)
	makeBatch := func(n int) []byte {
		reps := make([]core.Report, n)
		for i := range reps {
			rep, err := client.Perturb(uint64(i%256), r)
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = rep
		}
		body, err := encoding.MarshalBatch(p.Name(), reps)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// Phase 1: a batch acked before the kill — these reports MUST
	// survive (fsync=always means the ack implies durability).
	var acked atomic.Int64
	post := func(body []byte) bool {
		resp, err := http.Post("http://"+addr+"/report/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return false // the kill raced the request: not acked
		}
		defer resp.Body.Close()
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		acked.Add(int64(br.Accepted))
		return true
	}
	if !post(makeBatch(2000)) {
		t.Fatal("pre-kill batch not acked")
	}

	// Phase 2: keep ingesting from the background while the server is
	// SIGKILLed mid-stream; only acked batches count.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if !post(makeBatch(200)) {
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := srv.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	<-done
	_ = srv.Wait()
	mustAcked := acked.Load()

	// Phase 3: restart from the same directory; every acked report is
	// recovered and a marginal over the recovered state is servable.
	srv2 := start()
	defer func() {
		_ = srv2.Process.Kill()
		_, _ = srv2.Process.Wait()
	}()
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var sr StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if int64(sr.N) < mustAcked {
		t.Fatalf("recovered %d reports, but %d were acked before the kill", sr.N, mustAcked)
	}
	if sr.Durability == nil || sr.Durability.RecoveredReports != sr.N {
		t.Fatalf("durability status = %+v (n=%d)", sr.Durability, sr.N)
	}
	mresp, err := http.Get("http://" + addr + "/marginal?beta=3")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mr MarginalResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("marginal after recovery: status %d err %v", mresp.StatusCode, err)
	}
	if len(mr.Cells) != 4 || mr.N != sr.N {
		t.Fatalf("marginal response = %+v", mr)
	}
}

// TestWindowedCrashRecoveryE2E is the continual-release durability
// proof: a windowed deployment that has sealed several buckets is
// SIGKILLed mid-ingest and restarted from the same -data-dir. Every
// acked report must be recovered into the window, every bucket sealed
// before the kill must come back as a bucket (the 30s window expires
// none of them), and a windowed marginal must be servable over the
// recovered state.
func TestWindowedCrashRecoveryE2E(t *testing.T) {
	bin := buildLdpserver(t)

	dataDir := t.TempDir()
	addr := freeAddr(t)
	start := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", addr,
			"-protocol", "InpHT", "-d", "8", "-k", "2", "-eps", "1.1",
			"-data-dir", dataDir, "-fsync", "always",
			"-window", "30s", "-bucket", "500ms",
			"-refresh-interval", "0",
		)
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting ldpserver: %v", err)
		}
		waitHealthy(t, addr)
		return cmd
	}
	srv := start()
	defer func() { _ = srv.Process.Kill() }()

	p, err := core.New(core.InpHT, core.Config{D: 8, K: 2, Epsilon: 1.1, OptimizedPRR: true})
	if err != nil {
		t.Fatal(err)
	}
	client := p.NewClient()
	r := rng.New(101)
	makeBatch := func(n int) []byte {
		reps := make([]core.Report, n)
		for i := range reps {
			rep, err := client.Perturb(uint64(i%256), r)
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = rep
		}
		body, err := encoding.MarshalBatch(p.Name(), reps)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var acked atomic.Int64
	post := func(body []byte) bool {
		resp, err := http.Post("http://"+addr+"/report/batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		acked.Add(int64(br.Accepted))
		return true
	}

	// Phase 1: ingest across several bucket boundaries so the WAL
	// rotates into multiple bucket-aligned segments before the kill.
	for i := 0; i < 4; i++ {
		if !post(makeBatch(500)) {
			t.Fatal("pre-kill batch not acked")
		}
		time.Sleep(600 * time.Millisecond) // crosses a 500ms bucket boundary
	}
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var mid StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&mid); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mid.Window == nil || mid.Window.Rotations == 0 {
		t.Fatalf("window block before kill = %+v, want rotations", mid.Window)
	}
	if mid.Durability == nil || mid.Durability.WALSegments < 2 || mid.Window.SealedBuckets < 2 {
		t.Fatalf("before kill: durability %+v, window %+v; want bucket-rotated segments and sealed buckets", mid.Durability, mid.Window)
	}

	// Phase 2: SIGKILL mid-ingest; only acked batches count.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if !post(makeBatch(100)) {
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := srv.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-done
	_ = srv.Wait()
	mustAcked := acked.Load()

	// Phase 3: restart; the recovered ring holds every bucket sealed
	// before the kill and every acked report.
	srv2 := start()
	defer func() {
		_ = srv2.Process.Kill()
		_, _ = srv2.Process.Wait()
	}()
	resp, err = http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var sr StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if int64(sr.N) < mustAcked {
		t.Fatalf("recovered %d reports in the window, but %d were acked before the kill", sr.N, mustAcked)
	}
	if sr.Durability == nil || sr.Durability.RecoveredReports != sr.N {
		t.Fatalf("durability status = %+v (n=%d)", sr.Durability, sr.N)
	}
	if sr.Window == nil || sr.Window.SealedBuckets < mid.Window.SealedBuckets {
		t.Fatalf("window status = %+v, want at least the %d buckets sealed before the kill", sr.Window, mid.Window.SealedBuckets)
	}
	mresp, err := http.Get("http://" + addr + "/marginal?beta=3&window=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mr MarginalResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("windowed marginal after recovery: status %d err %v", mresp.StatusCode, err)
	}
	if len(mr.Cells) != 4 || mr.N != sr.N {
		t.Fatalf("marginal response = %+v", mr)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(fmt.Errorf("server at %s never became healthy", addr))
}
