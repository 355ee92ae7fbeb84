package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"ldpmarginals/internal/core"
)

// TestStoreFileGoldenBytes pins the bytes a cumulative node writes: the
// snapshot file and the WAL segment it covers, after fixed-seed reports.
// The digests were recorded before windowed nodes persisted their
// buckets; a failure means a data dir written by an older build no
// longer reads as it did. Never re-record them to make the test pass.
func TestStoreFileGoldenBytes(t *testing.T) {
	p := testProtocol(t)
	dir := t.TempDir()
	st, err := Open(dir, p, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reps, frames := makeFrames(t, p, 500, 32)
	agg := core.NewSharded(p, 2)
	st.SetSource(agg.Snapshot)
	ingestAll(t, st, agg, reps, frames)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		snapName(1): "e1ce9caebfb3b933fca9db8c9bb8398223c44ae2384f03510579b8b65b402437",
		segName(1):  "44f424e5863837e7b401f636f41caa42c4be7af5b71b3503533557109ee11e13",
	} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}
