package wire

import "testing"

// SameWalk lets the tests that need real protocol blobs, and so live
// outside the package, hold diffState to the per-value walk.
func SameWalk(t *testing.T, name string, base, next []byte) {
	t.Helper()
	sameWalk(t, name, base, next)
}
