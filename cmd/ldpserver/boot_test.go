package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestBootsFromFlags builds the binary and runs it as an operator
// would. The six retired tuning flags (the admission gate follows
// -shards; the fsync period, the disk-probe cadence and the WAL
// compaction period are fixed; the view refreshes on -refresh-interval
// alone) are refused as undefined with exit status 2, and a -fault-spec
// naming a removed fault option fails at startup with the parser's
// error. A single node, a durable
// windowed edge with a round budget, and a coordinator over that edge
// each reach /readyz 200, and each /status reports its -shards.
func TestBootsFromFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "ldpserver")
	if out, err := exec.Command("go", "build", "-o", bin, "ldpmarginals/cmd/ldpserver").CombinedOutput(); err != nil {
		t.Fatalf("building ldpserver: %v\n%s", err, out)
	}

	// refused runs the binary with args and wants it to exit with code,
	// naming want on stderr.
	refused := func(code int, want string, args ...string) {
		t.Helper()
		cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != code || !strings.Contains(stderr.String(), want) {
			t.Fatalf("%v: %v, stderr %q; want exit status %d and %q", args, err, stderr.String(), code, want)
		}
	}
	for _, name := range []string{"max-inflight-ingest", "max-ingest-queue", "fsync-interval", "degraded-probe-interval", "refresh-every-n", "snapshot-every-n"} {
		refused(2, "flag provided but not defined: -"+name, "-"+name, "1")
	}
	refused(1, "unknown mode", "-fault-spec", "store.wal.append=latency:delay=5ms")
	refused(1, "unknown option", "-fault-spec", "store.wal.append=error:prob=0.5")

	edge := freeAddr(t)
	for _, node := range []struct {
		addr   string
		shards int
		args   []string
	}{
		{freeAddr(t), 2, []string{"-role", "single"}},
		{edge, 3, []string{"-role", "edge", "-data-dir", t.TempDir(),
			"-window", "1m", "-bucket", "10s", "-round-eps", "5"}},
		{freeAddr(t), 1, []string{"-role", "coordinator", "-peers", "http://" + edge, "-pull-interval", "100ms"}},
	} {
		addr := node.addr
		args := append([]string{"-addr", addr, "-log-level", "error", "-shards", strconv.Itoa(node.shards)}, node.args...)
		waitReady(t, addr, start(t, bin, args))

		resp, err := http.Get("http://" + addr + "/status")
		if err != nil {
			t.Fatal(err)
		}
		var status struct {
			Shards int `json:"shards"`
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil || status.Shards != node.shards {
			t.Fatalf("%v: /status shards %d (err %v), want %d", args, status.Shards, err, node.shards)
		}
	}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// child is a running ldpserver whose stderr is kept for failure
// messages.
type child struct {
	cmd    *exec.Cmd
	args   []string
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has exited
	err    error         // its exit status, set before done closes
}

// start execs the binary and kills it when the test ends.
func start(t *testing.T, bin string, args []string) *child {
	t.Helper()
	c := &child{cmd: exec.Command(bin, args...), args: args, done: make(chan struct{})}
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { c.err = c.cmd.Wait(); close(c.done) }()
	t.Cleanup(c.stop)
	return c
}

// stop kills the process and waits for it, after which stderr is
// safe to read.
func (c *child) stop() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// waitReady polls GET /readyz until it answers 200, failing at once if
// the process exits first (say, because another process took its port
// after freeAddr released it).
func waitReady(t *testing.T, addr string, c *child) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		select {
		case <-c.done:
			t.Fatalf("ldpserver %v exited before it was ready: %v\n%s", c.args, c.err, c.stderr.String())
		default:
		}
		if resp, err := http.Get("http://" + addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
	}
	c.stop()
	t.Fatalf("ldpserver %v never became ready\n%s", c.args, c.stderr.String())
}
