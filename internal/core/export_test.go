package core

import (
	"bytes"
	"testing"
)

// TestExportShardsReassembles pins the delta-exchange foundation: the
// per-shard exports of a sharded aggregator, decoded and merged on the
// far side, are bit-identical to a full Snapshot, for every protocol.
func TestExportShardsReassembles(t *testing.T) {
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := New(kind, shardedTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			sh := NewSharded(p, 5)
			reps := perturbReports(t, p, 600, 7)
			for i := 0; i < len(reps); i += 60 {
				if err := sh.ConsumeBatch(reps[i:min(i+60, len(reps))]); err != nil {
					t.Fatal(err)
				}
			}
			exps, vers, err := sh.ExportShards()
			if err != nil {
				t.Fatal(err)
			}
			if len(vers) != len(sh.shards) {
				t.Fatalf("version vector over %d shards, want %d", len(vers), len(sh.shards))
			}
			// Reassemble exactly like a coordinator folding components.
			blobs := make([][]byte, 0, len(exps))
			total := 0
			for _, e := range exps {
				if e.N == 0 || len(e.State) == 0 {
					t.Fatalf("shard %d exported empty (n=%d, %d bytes)", e.Index, e.N, len(e.State))
				}
				if vers[e.Index] != e.Version {
					t.Fatalf("shard %d: export version %d but vector says %d", e.Index, e.Version, vers[e.Index])
				}
				blobs = append(blobs, e.State)
				total += e.N
			}
			if total != len(reps) {
				t.Fatalf("exports hold %d reports, want %d", total, len(reps))
			}
			got, err := foldBlobs(p, nil, blobs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sh.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			wantBlob, err := want.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			gotBlob, err := got.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBlob, wantBlob) {
				t.Fatal("reassembled exports differ from a full snapshot")
			}
		})
	}
}

// TestExportShardsVersionVector pins the delta contract: an untouched
// shard's vector entry is stable across exports, and a mutation moves
// exactly the touched shard's entry.
func TestExportShardsVersionVector(t *testing.T) {
	p, err := New(InpHT, shardedTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(p, 4)
	reps := perturbReports(t, p, 40, 9)
	for i := 0; i < 4; i++ {
		if err := sh.ConsumeBatch(reps[i*8 : (i+1)*8]); err != nil {
			t.Fatal(err)
		}
	}
	_, before, err := sh.ExportShards()
	if err != nil {
		t.Fatal(err)
	}
	// One batch touches exactly one (round-robin) shard.
	if err := sh.ConsumeBatch(reps[32:40]); err != nil {
		t.Fatal(err)
	}
	_, after, err := sh.ExportShards()
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range before {
		if before[i] != after[i] {
			moved++
		}
	}
	if moved != 1 {
		t.Fatalf("one batch moved %d shard versions, want 1 (before %v, after %v)", moved, before, after)
	}
	// Empty shards are omitted from exports but present in the vector.
	empty := NewSharded(p, 6)
	exps, vers, err := empty.ExportShards()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 0 || len(vers) != 6 {
		t.Fatalf("empty aggregator exported %d shards with a %d-entry vector", len(exps), len(vers))
	}
}
