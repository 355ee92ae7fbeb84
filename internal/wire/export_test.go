package wire

import "testing"

// SameWalk lets the tests that need real protocol blobs, and so live
// outside the package, hold diffState to the per-value walk.
func SameWalk(t *testing.T, name string, base, next []byte) {
	t.Helper()
	sameWalk(t, name, base, next)
}

// ShippedAndDense returns the bytes c ships in, its diff fields and
// payload, and the bytes it would take as the smaller of itself whole
// and its dense diff against c.Base: what the encoder shipped before the
// sparse form, which the sparse form must never lose to.
func ShippedAndDense(c StateComponent) (shipped, dense int, err error) {
	var p packer
	_, head, payload, err := p.component(c)
	if err != nil {
		return 0, 0, err
	}
	shipped = len(head) + len(payload)
	whole, _, err := p.pack(c.State)
	if err != nil {
		return 0, 0, err
	}
	dense = len(whole)
	if d, ok := diffState(c.Base.State, c.State); ok {
		packed, _, err := p.pack(d.dense())
		if err != nil {
			return 0, 0, err
		}
		head := uvarintLen(c.Version-c.Base.Version) + 4 + uvarintLen(uint64(d.denseLen()))
		dense = min(dense, head+len(packed))
	}
	return shipped, dense, nil
}
