package wire_test

import (
	"bytes"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/wire"
)

// stateOf marshals an aggregator fed reps.
func stateOf(t *testing.T, p core.Protocol, reps []core.Report) []byte {
	t.Helper()
	agg := p.NewAggregator()
	if err := agg.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
	blob, err := agg.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDiffRoundTripAllProtocols: the codec knows nothing of what a blob
// holds, so it is held against the real blobs of all six protocols — a
// state that grew (cumulative release), one that shrank (a window whose
// oldest bucket expired, every counter at or below its base), and one
// with no base at all — through the frame and back, byte for byte.
func TestDiffRoundTripAllProtocols(t *testing.T) {
	for _, kind := range core.AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := core.New(kind, core.Config{D: 8, K: 2, Epsilon: 1.1, OptimizedPRR: true})
			if err != nil {
				t.Fatal(err)
			}
			client, r := p.NewClient(), rng.New(uint64(17+kind))
			reps := make([]core.Report, 2000)
			for i := range reps {
				if reps[i], err = client.Perturb(uint64(i*7)%256, r); err != nil {
					t.Fatal(err)
				}
			}
			early, all, late := stateOf(t, p, reps[:1900]), stateOf(t, p, reps), stateOf(t, p, reps[600:])
			cases := []struct {
				name       string
				base, next []byte
				wantDiff   bool
			}{
				{"grown by 100 reports", early, all, true},
				{"shrunk by an expired bucket", all, late, false},
				{"unrelated base", nil, all, false},
			}
			for _, tc := range cases {
				base := wire.ComponentBase{Version: 40, State: tc.base}
				in := wire.ComponentFrame{NodeID: "e", Version: 9, Delta: true, BaseVersion: 8, N: 1,
					Components: []wire.StateComponent{{ID: "e/0", Version: 41, N: 1, State: tc.next, Base: &base}}}
				buf, err := wire.EncodeComponentFrame(in)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				out, err := wire.DecodeComponentFrameWith(buf, 1<<24, func(string) (wire.ComponentBase, bool) { return base, true })
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				got := out.Components[0]
				if !bytes.Equal(got.State, tc.next) {
					t.Fatalf("%s: decoded state differs from the exported one", tc.name)
				}
				if tc.wantDiff && got.Base == nil {
					t.Errorf("%s: shipped whole (%d frame bytes)", tc.name, len(buf))
				}
				in.Components[0].Base = nil
				whole, err := wire.EncodeComponentFrame(in)
				if err != nil {
					t.Fatal(err)
				}
				if got.Base != nil && len(buf) >= len(whole) {
					t.Errorf("%s: diff frame of %d bytes, whole frame %d", tc.name, len(buf), len(whole))
				}
				// The blob must still be what the protocol's own decoder
				// accepts: canonical, invariants intact.
				if err := p.NewAggregator().UnmarshalState(got.State); err != nil {
					t.Errorf("%s: rebuilt blob rejected: %v", tc.name, err)
				}
			}
		})
	}
}
