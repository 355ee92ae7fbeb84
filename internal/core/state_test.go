package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"ldpmarginals/internal/rng"
	"ldpmarginals/internal/wire"
)

// TestStateRoundTripBitIdentical pins the state codec contract for all
// six protocols: marshal a populated aggregator, restore the blob into
// a fresh aggregator, and require (a) the re-marshaled blob to be
// byte-identical (canonical encoding) and (b) every answerable
// marginal to reconstruct bit-identically from the restored state.
func TestStateRoundTripBitIdentical(t *testing.T) {
	cfg := shardedTestConfig()
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := New(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			agg := p.NewAggregator()
			if err := agg.ConsumeBatch(perturbReports(t, p, 2000, 7)); err != nil {
				t.Fatal(err)
			}
			blob, err := agg.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			restored := p.NewAggregator()
			if err := restored.UnmarshalState(blob); err != nil {
				t.Fatal(err)
			}
			if restored.N() != agg.N() {
				t.Fatalf("restored N = %d, want %d", restored.N(), agg.N())
			}
			again, err := restored.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, again) {
				t.Fatalf("re-marshaled state differs: %d vs %d bytes", len(again), len(blob))
			}
			assertTablesBitIdentical(t, restored, agg, cfg)
		})
	}
}

// TestStateEmptyRoundTrip pins that an empty aggregator's state
// restores to an empty aggregator for every protocol.
func TestStateEmptyRoundTrip(t *testing.T) {
	cfg := shardedTestConfig()
	for _, kind := range AllKinds() {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := p.NewAggregator().MarshalState()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		restored := p.NewAggregator()
		if err := restored.UnmarshalState(blob); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if restored.N() != 0 {
			t.Fatalf("%v: restored empty state has N = %d", kind, restored.N())
		}
	}
}

// TestUnmarshalStateRejectsWrongProtocol pins that a blob restores only
// into its own protocol: every cross-protocol pairing must fail and
// leave the receiver unchanged.
func TestUnmarshalStateRejectsWrongProtocol(t *testing.T) {
	cfg := shardedTestConfig()
	blobs := make(map[Kind][]byte)
	for _, kind := range AllKinds() {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agg := p.NewAggregator()
		if err := agg.ConsumeBatch(perturbReports(t, p, 200, 3)); err != nil {
			t.Fatal(err)
		}
		if blobs[kind], err = agg.MarshalState(); err != nil {
			t.Fatal(err)
		}
	}
	for _, dst := range AllKinds() {
		p, err := New(dst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range AllKinds() {
			if src == dst {
				continue
			}
			agg := p.NewAggregator()
			if err := agg.UnmarshalState(blobs[src]); err == nil {
				t.Fatalf("%v state restored into %v aggregator", src, dst)
			}
			if agg.N() != 0 {
				t.Fatalf("failed restore left %v aggregator with N = %d", dst, agg.N())
			}
		}
	}
}

// TestUnmarshalStateRejectsWrongGeometry pins that state from a
// different deployment configuration of the same protocol (here a
// larger d) is refused whichever way it arrives — as a blob, or as the
// argument of Merge, Unmerge or CopyStateFrom in either direction — with
// an error, no panic and the receiver unchanged.
func TestUnmarshalStateRejectsWrongGeometry(t *testing.T) {
	cfgs := [2]Config{shardedTestConfig(), shardedTestConfig()}
	cfgs[1].D += 2
	for _, kind := range AllKinds() {
		var aggs [2]Aggregator
		var blobs [2][]byte
		for i, cfg := range cfgs {
			p, err := New(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			aggs[i] = p.NewAggregator()
			if err := aggs[i].ConsumeBatch(perturbReports(t, p, 100, 5)); err != nil {
				t.Fatal(err)
			}
			if blobs[i], err = aggs[i].MarshalState(); err != nil {
				t.Fatal(err)
			}
		}
		for dst := range aggs {
			src := 1 - dst
			folds := map[string]func() error{
				"UnmarshalState": func() error { return aggs[dst].UnmarshalState(blobs[src]) },
				"Merge":          func() error { return aggs[dst].Merge(aggs[src]) },
				"Unmerge":        func() error { return UnmergeAggregators(aggs[dst], aggs[src]) },
				"CopyStateFrom":  func() error { return aggs[dst].(Folder).CopyStateFrom(aggs[src]) },
			}
			for name, fold := range folds {
				if err := fold(); err == nil {
					t.Errorf("%v: %s took d=%d state into a d=%d aggregator", kind, name, cfgs[src].D, cfgs[dst].D)
				}
				if got, _ := aggs[dst].MarshalState(); !bytes.Equal(got, blobs[dst]) {
					t.Fatalf("%v: failed %s changed the receiver", kind, name)
				}
			}
		}
	}
}

// wrappingStates builds, at cfg's geometry, state blobs whose counters
// break an invariant by 2^64: a naive sum check wraps and passes them.
// InpPS and one MargPS marginal get cells 2^63, 2^63, 5 "summing" to the
// 5 reports they claim; InpHT and one MargHT marginal get four counts of
// 2^62 "summing" to the 0 reports they claim.
func wrappingStates(tb testing.TB, cfg Config) map[Kind][]byte {
	tb.Helper()
	masks, cells := len(KWayMasks(cfg.D, cfg.K)), 1<<uint(cfg.K)
	pht, err := NewInpHT(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ps := func(e *wire.StateEncoder, n int) {
		row := make([]uint64, n)
		row[0], row[1], row[2] = 1<<63, 1<<63, 5
		e.Uint64s(row)
	}
	ht := func(e *wire.StateEncoder, n int) {
		counts := make([]int64, n)
		counts[0], counts[1], counts[2], counts[3] = 1<<62, 1<<62, 1<<62, 1<<62
		e.Int64s(make([]int64, n))
		e.Int64s(counts)
	}
	out := make(map[Kind][]byte)

	e := wire.NewStateEncoder(stateKindInpPS, stateVersion)
	e.Uvarint(5)
	ps(e, 1<<uint(cfg.D))
	out[InpPS] = e.Bytes()

	e = wire.NewStateEncoder(stateKindInpHT, stateVersion)
	e.Uvarint(0)
	ht(e, len(pht.(*inpHT).coeffs))
	out[InpHT] = e.Bytes()

	users := make([]int, masks)
	users[0] = 5
	e = wire.NewStateEncoder(stateKindMargPS, stateVersion)
	e.Uvarint(5)
	e.Counts(users)
	ps(e, cells)
	for i := 1; i < masks; i++ {
		e.Uint64s(make([]uint64, cells))
	}
	out[MargPS] = e.Bytes()

	e = wire.NewStateEncoder(stateKindMargHT, stateVersion)
	e.Uvarint(0)
	e.Counts(make([]int, masks))
	ht(e, cells)
	for i := 1; i < masks; i++ {
		e.Int64s(make([]int64, cells))
		e.Int64s(make([]int64, cells))
	}
	out[MargHT] = e.Bytes()
	return out
}

// TestUnmarshalStateRejectsWrappingSums: a blob whose counters only add
// up modulo 2^64 is what a poisoned peer sends a coordinator, and used
// to restore — Estimate then returned cells of 1e19. It must be refused
// and leave the receiver unchanged.
func TestUnmarshalStateRejectsWrappingSums(t *testing.T) {
	cfg := Config{D: 3, K: 2, Epsilon: 1.1}
	for kind, blob := range wrappingStates(t, cfg) {
		p, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agg := p.NewAggregator()
		if err := agg.ConsumeBatch(deltaReports(t, p, 40, 9)); err != nil {
			t.Fatal(err)
		}
		before, err := agg.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.UnmarshalState(blob); err == nil {
			t.Errorf("%v: state with wrapping counter sums restored", kind)
		}
		if got, _ := agg.MarshalState(); !bytes.Equal(got, before) {
			t.Errorf("%v: refused state changed the receiver", kind)
		}
	}
	// The same peer can stay inside every invariant and aim at the sum the
	// coordinator forms: two states of MaxInt reports each are valid, their
	// merge is not.
	p, err := NewInpPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := wire.NewStateEncoder(stateKindInpPS, stateVersion)
	e.Uvarint(math.MaxInt)
	e.Uint64s([]uint64{math.MaxInt, 0, 0, 0, 0, 0, 0, 0})
	huge, cum := p.NewAggregator(), p.NewAggregator()
	if err := huge.UnmarshalState(e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := cum.Merge(huge); err != nil {
		t.Fatal(err)
	}
	if err := cum.Merge(huge); err == nil {
		t.Error("merge wrapped the report count")
	}
	if got, _ := cum.MarshalState(); !bytes.Equal(got, e.Bytes()) {
		t.Error("refused merge changed the receiver")
	}
}

// FuzzUnmarshalState feeds arbitrary blobs to every protocol's decoder:
// it must restore cleanly or reject with an error — never panic — and a
// successful restore must re-marshal to the exact input (no two byte
// strings decode to the same accepted state).
func FuzzUnmarshalState(f *testing.F) {
	cfg := Config{D: 6, K: 2, Epsilon: 1.1, OptimizedPRR: true}
	protos := make([]Protocol, 0, len(AllKinds()))
	for _, kind := range AllKinds() {
		p, err := New(kind, cfg)
		if err != nil {
			f.Fatal(err)
		}
		protos = append(protos, p)
		agg := p.NewAggregator()
		client := p.NewClient()
		// A small deterministic population seeds the corpus with valid
		// blobs of every kind.
		r := rng.New(uint64(len(protos)))
		for i := 0; i < 64; i++ {
			rep, err := client.Perturb(uint64(i%64), r)
			if err != nil {
				f.Fatal(err)
			}
			if err := agg.Consume(rep); err != nil {
				f.Fatal(err)
			}
		}
		blob, err := agg.MarshalState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		// Truncated, bit-flipped, and oversized-length variants.
		f.Add(blob[:len(blob)/2])
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
		f.Add(append([]byte{blob[0], blob[1]}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F))
	}
	for _, blob := range wrappingStates(f, cfg) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range protos {
			agg := p.NewAggregator()
			if err := agg.UnmarshalState(data); err != nil {
				continue
			}
			blob, err := agg.MarshalState()
			if err != nil {
				t.Fatalf("%s: accepted state does not re-marshal: %v", p.Name(), err)
			}
			if !bytes.Equal(blob, data) {
				t.Fatalf("%s: accepted state re-marshals to %d bytes, input was %d", p.Name(), len(blob), len(data))
			}
		}
	})
}

// stateGolden holds the SHA-256 of each protocol's MarshalState over
// perturbReports(p, 2000, seed 97) at shardedTestConfig, recorded at the
// last commit whose codecs were written per protocol (3f8878c).
var stateGolden = map[Kind]string{
	InpRR:  "5e45bc81448c5983dcfdfaef36358e5fd38215174fd9cf48464fc690e882c5fa",
	InpPS:  "dd6ca73774c813d3159db07777aa292eada315208ffa9f8758dad21f0c1b1383",
	InpHT:  "a02a638be9f611d1fe1571a79693723ec952b4dbb8622feffd7512daadb2e070",
	MargRR: "9a7e194413e181353959b216617f89e012fb88879f0577a287cfb82e16f97edb",
	MargPS: "c240a6fbe13c0688daae9445a937069df86359733f670164c22f2b617feaa5f5",
	MargHT: "8bbae0c8804fedf106d5426bfa5a1831e32668529e71b402402a2d221f4d0ae2",
}

// TestStateGoldenBytes pins the persisted state format itself, which a
// round trip cannot: a codec that swapped two fields, or wrote a varint
// where a zig-zag belongs, would still restore its own output. A
// sequential aggregator and the merge of a 4-shard one must both marshal
// to the recorded bytes, so snapshots, WAL-recovered state and peer
// components written before a codec change still load after it.
func TestStateGoldenBytes(t *testing.T) {
	cfg := shardedTestConfig()
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := New(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reps := perturbReports(t, p, 2000, 97)
			seq := p.NewAggregator()
			if err := seq.ConsumeBatch(reps); err != nil {
				t.Fatal(err)
			}
			sh := NewSharded(p, 4)
			for lo := 0; lo < len(reps); lo += 125 {
				if err := sh.ConsumeBatch(reps[lo : lo+125]); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := sh.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for name, agg := range map[string]Aggregator{"sequential": seq, "sharded": snap} {
				blob, err := agg.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != stateGolden[kind] {
					t.Errorf("%s %v state (%d bytes) hashes to %s, want %s", name, kind, len(blob), got, stateGolden[kind])
				}
			}
		})
	}
}
