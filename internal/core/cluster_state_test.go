package core

import (
	"bytes"
	"testing"

	"ldpmarginals/internal/rng"
)

// foldBlobs decodes foreign state blobs and folds them, after the
// local aggregator's shards when one is given, through a FoldArena — the
// way a coordinator folds the peer components it accepted.
func foldBlobs(p Protocol, local *ShardedAggregator, blobs [][]byte) (Aggregator, error) {
	var parts []Part
	if local != nil {
		parts = local.AppendParts(parts)
	}
	for i, blob := range blobs {
		agg := p.NewAggregator()
		if err := agg.UnmarshalState(blob); err != nil {
			return nil, err
		}
		parts = append(parts, Part{Key: i, Agg: func(Aggregator) (Aggregator, error) { return agg, nil }})
	}
	arena := NewFoldArena(p.NewAggregator)
	if _, err := arena.Sync(parts); err != nil {
		return nil, err
	}
	return arena.State(), nil
}

// TestCrossProcessMergeBitIdentity extends the merge-vs-sequential
// equivalence to the cluster exchange path for the full protocol set:
// a stream split across two foreign aggregators, exported through the
// canonical state codec, decoded and folded back in, must produce state
// byte-identical to one sequential aggregator consuming the whole
// stream. This is the core guarantee the edge/coordinator tier rests on.
func TestCrossProcessMergeBitIdentity(t *testing.T) {
	cfg := Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true}
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			p, err := New(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			client := p.NewClient()
			r := rng.New(uint64(kind) + 1)
			const n = 300
			reps := make([]Report, n)
			for i := range reps {
				if reps[i], err = client.Perturb(uint64(i%64), r); err != nil {
					t.Fatal(err)
				}
			}

			// Sequential reference over the whole stream.
			seq := p.NewAggregator()
			for _, rep := range reps {
				if err := seq.Consume(rep); err != nil {
					t.Fatal(err)
				}
			}
			want, err := seq.MarshalState()
			if err != nil {
				t.Fatal(err)
			}

			// Two "edge processes" split the stream round-robin and
			// export canonical state blobs.
			var edges [2]Aggregator
			for i := range edges {
				edges[i] = p.NewAggregator()
			}
			for i, rep := range reps {
				if err := edges[i%2].Consume(rep); err != nil {
					t.Fatal(err)
				}
			}
			var blobs [][]byte
			for _, e := range edges {
				blob, err := e.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				blobs = append(blobs, blob)
			}

			// A "coordinator" folds the foreign blobs in; the merged state
			// must be byte-identical.
			merged, err := foldBlobs(p, nil, blobs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := merged.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: merged foreign state differs from sequential (%d vs %d bytes)", kind, len(got), len(want))
			}
			if merged.N() != n {
				t.Fatalf("merged N=%d, want %d", merged.N(), n)
			}

			// Local shards and foreign blobs compose: reports ingested
			// locally plus one foreign blob equal the sequential whole.
			mixed := NewSharded(p, 4)
			for i, rep := range reps {
				if i%2 == 0 {
					if err := mixed.ConsumeBatch([]Report{rep}); err != nil {
						t.Fatal(err)
					}
				}
			}
			merged2, err := foldBlobs(p, mixed, blobs[1:])
			if err != nil {
				t.Fatal(err)
			}
			got2, err := merged2.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got2, want) {
				t.Fatalf("%v: local+foreign state differs from sequential", kind)
			}

			// A structurally corrupt foreign blob is rejected, not
			// merged: wrong kind byte, and a truncated tail. (Bit flips
			// inside counter values are the state-exchange frame CRC's
			// job, not the codec's.)
			bad := append([]byte(nil), blobs[0]...)
			bad[0] ^= 0xFF
			if _, err := foldBlobs(p, nil, [][]byte{bad}); err == nil {
				t.Error("foreign blob with a foreign kind byte was merged")
			}
			if _, err := foldBlobs(p, nil, [][]byte{blobs[0][:len(blobs[0])-1]}); err == nil {
				t.Error("truncated foreign blob was merged")
			}
		})
	}
}
