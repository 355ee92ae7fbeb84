package wire_test

import (
	"bytes"
	"fmt"
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
// oldest bucket expired, every counter at or below its base), one with
// no base at all, and bases of fewer and of more values than the state —
// through the frame and back, byte for byte; and the walk
// that steps over unmoved values eight bytes at a time finds what the
// walk that decodes every value does.
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
				{"base of fewer values", cutValues(early, len(early)/3), all, false},
				{"base of more values", append(append([]byte(nil), all...), 1, 0x81, 0x01, 0), early, false},
			}
			for _, tc := range cases {
				wire.SameWalk(t, tc.name, tc.base, tc.next)
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

// cutValues drops at least n bytes off the end of a blob, up to a value
// boundary: a blob of fewer values.
func cutValues(blob []byte, n int) []byte {
	blob = blob[:len(blob)-n]
	for len(blob) > 2 && blob[len(blob)-1] >= 0x80 {
		blob = blob[:len(blob)-1]
	}
	return blob
}

// TestSparseDiffGrid holds the sparse diff against the real blobs of all
// six protocols at every churn from one report to four per counter of
// the widest state, growing (cumulative release) and shrinking (a window
// that let those reports go), against bases of fewer and of more values:
// the puller rebuilds the exporter's blob byte for byte, the encoder never
// ships more bytes than the smaller of whole and dense diff (what it
// shipped before there were sparse diffs), and ships fewer, as a sparse
// diff, where the churn is sparse.
func TestSparseDiffGrid(t *testing.T) {
	type shape struct {
		kind core.Kind
		d    int
	}
	shapes := []shape{{core.InpPS, 16}}
	for _, kind := range core.AllKinds() {
		shapes = append(shapes, shape{kind, 8})
	}
	churns := []int{1, 16, 1024, 16384, 262144}
	const baseReports = 65536
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%v/d=%d", sh.kind, sh.d), func(t *testing.T) {
			p, err := core.New(sh.kind, core.Config{D: sh.d, K: 2, Epsilon: 1.1, OptimizedPRR: true})
			if err != nil {
				t.Fatal(err)
			}
			client, r, agg := p.NewClient(), rng.New(uint64(23+sh.kind)), p.NewAggregator()
			consumed := 0
			stateAt := func(n int) []byte {
				for ; consumed < n; consumed++ {
					rep, err := client.Perturb(uint64(consumed*7)%(1<<sh.d), r)
					if err != nil {
						t.Fatal(err)
					}
					if err := agg.Consume(rep); err != nil {
						t.Fatal(err)
					}
				}
				blob, err := agg.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}
			early := stateAt(baseReports)
			for _, churn := range churns {
				late := stateAt(baseReports + churn)
				pairs := []struct {
					name       string
					base, next []byte
				}{
					{"grown", early, late},
					{"shrunk", late, early},
					{"base of fewer values", cutValues(early, len(early)/3), late},
					{"base of more values", early, cutValues(late, len(late)/3)},
				}
				for _, pair := range pairs {
					base := wire.ComponentBase{Version: 40, State: pair.base}
					c := wire.StateComponent{ID: "e", Version: 41, N: 1, State: pair.next, Base: &base}
					frame, err := wire.EncodeComponentFrame(wire.ComponentFrame{NodeID: "e", Version: 9, Delta: true, BaseVersion: 8, N: 1,
						Components: []wire.StateComponent{c}})
					if err != nil {
						t.Fatalf("%d reports, %s: %v", churn, pair.name, err)
					}
					out, err := wire.DecodeComponentFrameWith(frame, 1<<24, func(string) (wire.ComponentBase, bool) { return base, true })
					if err != nil {
						t.Fatalf("%d reports, %s: %v", churn, pair.name, err)
					}
					if !bytes.Equal(out.Components[0].State, pair.next) {
						t.Fatalf("%d reports, %s: rebuilt blob differs from the exported one", churn, pair.name)
					}
					shipped, dense, err := wire.ShippedAndDense(c)
					if err != nil {
						t.Fatal(err)
					}
					if shipped > dense {
						t.Errorf("%d reports, %s: %d bytes shipped, %d as the smaller of whole and dense diff", churn, pair.name, shipped, dense)
					}
					arrived := out.Components[0].Base
					if sh.d == 16 && churn <= 16384 && pair.name != "base of fewer values" {
						// Under a quarter of the 2^16 counters moved.
						if arrived == nil || !arrived.Sparse || shipped >= dense {
							t.Errorf("%d reports, %s: sparse churn shipped as %+v in %d bytes, %d without sparse diffs", churn, pair.name, arrived, shipped, dense)
						}
					}
					// The size the bench's fleet-pull cell rests on: one
					// 1,024-report batch into a 2^16-counter InpPS node, in a
					// frame whose one component is not the node's own.
					if denseFrame := len(frame) - shipped + dense; sh.d == 16 && churn == 1024 && pair.name == "grown" && (len(frame) != 1020 || denseFrame != 2511) {
						t.Errorf("1,024 reports into 2^16 counters: frames of %d bytes sparse and %d dense, want 1020 and 2511", len(frame), denseFrame)
					}
				}
			}
		})
	}
}
