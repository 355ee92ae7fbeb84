package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

// pr18Shipped is what packer.component shipped for c, diff fields and
// payload, in the build before the sparse diff was bit-packed: the same
// ladder and the same two shape rules, with the sparse rung a stream of
// varints (header, uvarint m, m gaps, m zig-zag differences) packed like
// any payload, to the smallest of raw, BestSpeed and HuffmanOnly. It is
// the reference the sizes of the new form are held to.
func pr18Shipped(t *testing.T, c StateComponent) int {
	t.Helper()
	var pk packer
	pack := func(raw []byte) int {
		packed, _, err := pk.pack(raw)
		if err != nil {
			t.Fatal(err)
		}
		return len(packed)
	}
	whole := pack(c.State)
	d, ok := diffState(c.Base.State, c.State)
	if !ok {
		return whole
	}
	head := len(binary.AppendUvarint(nil, c.Version-c.Base.Version)) + 4
	stream := binary.AppendUvarint(append([]byte(nil), d.header[:]...), uint64(d.moved))
	stream = append(append(stream, d.gaps...), d.diffs...)
	diff := 0
	if !d.gapsPay() || !d.clearlySparse() {
		diff = head + uvarintLen(uint64(d.denseLen())) + pack(d.dense())
	}
	if d.gapsPay() {
		if sparse := head + uvarintLen(uint64(len(stream))) + pack(stream); diff == 0 || sparse < diff {
			diff = sparse
		}
	}
	if diff < len(c.State)/diffCertain || diff < whole {
		return diff
	}
	return whole
}

// TestSparseDiffNeverLargerThanVarints walks the churn from one value in
// a thousand to every value several times over, on the three state
// shapes of the roadmap's table (2^16 counters; the 5,488 and 696
// coefficients of InpHT at d=32 and d=16) and the 75 of InpHT at d=8,
// and holds every component to what the ladder shipped when its sparse
// rung was varints under deflate: never more bytes, and fewer wherever
// the sparse rung is the one that ships. Below four moved values the two
// differ by a byte of parameters either way, which is allowed for. On
// the 75, a state under sparseSmall, the bit-packed diff is the smallest
// at every churn, all-moved included, where that ladder never built it.
func TestSparseDiffNeverLargerThanVarints(t *testing.T) {
	shapes := []struct {
		name      string
		build     func(seed uint64, lambda float64) (base, next []byte)
		allSparse bool // the sparse diff ships at every churn
	}{
		{"65536 counters", func(seed uint64, l float64) ([]byte, []byte) { return counterShape(seed, 1<<16, 32, l) }, false},
		{"5488 coefficients", func(seed uint64, l float64) ([]byte, []byte) { return coefficientShape(seed, 5488, 40, l) }, false},
		{"696 coefficients", func(seed uint64, l float64) ([]byte, []byte) { return coefficientShape(seed, 696, 40, l) }, false},
		{"75 coefficients", func(seed uint64, l float64) ([]byte, []byte) { return coefficientShape(seed, 75, 40, l) }, true},
	}
	for _, sh := range shapes {
		sawSparse, sawDense, sawAllMoved := false, false, false
		for i, lambda := range []float64{0.001, 0.004, 0.016, 0.0625, 0.25, 1, 4, 16} {
			base, next := sh.build(uint64(100+i), lambda)
			c := StateComponent{ID: "e", Version: 9, N: 1, State: next,
				Base: &ComponentBase{Version: 7, State: base}}
			var pk packer
			enc, head, payload, err := pk.component(c)
			if err != nil {
				t.Fatal(err)
			}
			d, _ := diffState(base, next)
			got, was := len(head)+len(payload), pr18Shipped(t, c)
			slack := 0
			if d.moved < 4 {
				slack = 2
			}
			if got > was+slack {
				t.Errorf("%s, lambda %v (%d of %d moved): %d bytes shipped (encoding %#x), %d with the varint sparse stream",
					sh.name, lambda, d.moved, d.vals, got, enc, was)
			}
			if enc&compEncRice != 0 {
				sawSparse = true
				sawAllMoved = sawAllMoved || !d.gapsPay()
				if d.moved >= 4 && got >= was {
					t.Errorf("%s, lambda %v (%d of %d moved): the sparse diff ships at %d bytes, no fewer than the %d of varints",
						sh.name, lambda, d.moved, d.vals, got, was)
				}
			} else {
				sawDense = true
			}
			t.Logf("%s, lambda %v: %d of %d moved, %d bytes (encoding %#x), %d before (%+.0f%%)",
				sh.name, lambda, d.moved, d.vals, got, enc, was, 100*float64(got-was)/float64(was))
		}
		if !sawSparse || sawDense == sh.allSparse || sh.allSparse && !sawAllMoved {
			t.Errorf("%s: the churn sweep shipped sparse diffs: %v (where most values moved: %v), other forms: %v; want sparse diffs, and other forms: %v",
				sh.name, sawSparse, sawAllMoved, sawDense, !sh.allSparse)
		}
	}
}

// TestSparseDiffDeflatesNothing: a component whose diff is clearly
// sparse, and small beside its state, is encoded and decoded without a
// deflate stream being built, written, reset or read on either side.
func TestSparseDiffDeflatesNothing(t *testing.T) {
	base, next := counterShape(5, 1<<16, 32, 0.016)
	c := StateComponent{ID: "e", Version: 9, N: 1, State: next,
		Base: &ComponentBase{Version: 7, State: base}}
	if d, _ := diffState(base, next); !d.clearlySparse() {
		t.Fatalf("%d of %d values moved: the shape no longer tests the rule", d.moved, d.vals)
	}
	// A packer and an inflater that have never been used hold no
	// compressor, and can only come by one by building it.
	var pk packer
	enc, head, payload, err := pk.component(c)
	if err != nil {
		t.Fatal(err)
	}
	if enc != compEncDiff|compEncRice {
		t.Fatalf("encoding %#x, want a sparse diff", enc)
	}
	if pk.zw != [2]*flate.Writer{} || pk.out[0].Len() != 0 || pk.out[1].Len() != 0 {
		t.Errorf("encoding a clearly sparse diff of %d bytes built a deflate writer", len(head)+len(payload))
	}
	buf, err := EncodeComponentFrame(ComponentFrame{NodeID: "e", Version: 9, Delta: true, BaseVersion: 7, N: 1,
		Components: []StateComponent{c}})
	if err != nil {
		t.Fatal(err)
	}
	// Nor does an empty pool of inflaters get asked for one.
	built := 0
	defer func(was func() any) { inflaters = sync.Pool{New: was} }(inflaters.New)
	inflaters = sync.Pool{New: func() any { built++; return flate.NewReader(nil) }}
	out, err := DecodeComponentFrameWith(buf, testMaxRaw, func(string) (ComponentBase, bool) { return *c.Base, true })
	if err != nil || !bytes.Equal(out.Components[0].State, next) {
		t.Fatalf("decoded state differs (err %v)", err)
	}
	if built != 0 {
		t.Error("decoding a sparse diff built a deflate reader")
	}
}

// FuzzApplySparseDiff feeds applySparseDiff arbitrary streams, bases and
// declared lengths. Whatever it is given it must not panic, and must not
// build more than the declared length: what it accepts is exactly that
// long, in a buffer no larger. The seeds are the diffs of the four
// benchmark workloads' shapes, in both forms of the values, and the
// streams only a hostile peer writes.
func FuzzApplySparseDiff(f *testing.F) {
	add := func(base, next []byte) {
		d, ok := diffState(base, next)
		if !ok {
			f.Fatal("seed does not diff")
		}
		f.Add(base, d.appendSparse(nil), uint32(len(next)))
	}
	add(counterShape(1, 1<<12, 32, 0.016)) // fleet-pull and view-wide, a sixteenth the size
	add(coefficientShape(3, 75, 40, 1.9))  // ingest-narrow
	add(counterShape(4, 170, 6, 0.17))     // durable-mixed
	add(counterShape(6, 300, 6, 3))        // most values moved
	add(counterBlob(nil), counterBlob(nil))
	base, next, _, goodSparse := diffFixture()
	f.Add(base.State, goodSparse.payload, uint32(len(next)))
	hostile := func(m uint64, write func(*bitWriter)) {
		w := bitWriter{out: binary.AppendUvarint(append([]byte(nil), next[:2]...), m)}
		write(&w)
		f.Add(base.State, w.flush(), uint32(len(next)))
	}
	hostile(2, func(w *bitWriter) { w.put(1<<32-1, 32); w.put(1<<32-1, 32); w.put(1<<32-1, 32) }) // ones without end
	hostile(1<<40, func(w *bitWriter) { w.put(0, 6) })                                            // m beyond the state
	hostile(2, func(w *bitWriter) {                                                               // more values beside the mode than values
		w.put(0, 6)
		w.rice(1, 0)
		w.rice(1, 0)
		w.put(1, 1)
		w.rice(0, 0)
		w.rice(1<<30, 0)
	})
	hostile(1, func(w *bitWriter) { w.put(0, 6); w.rice(1<<50, 0); w.put(0, 7); w.rice(0, 0) }) // a gap beyond any state
	hostile(1, func(w *bitWriter) { w.put(0, 6); w.rice(3, 0); w.put(0, 7); w.rice(0, 0); w.put(1, 1) })

	f.Fuzz(func(t *testing.T, base, stream []byte, rawLen uint32) {
		rawLen %= 1 << 20
		out, err := applySparseDiff(base, stream, uint64(rawLen))
		if err != nil {
			return
		}
		if len(out) != int(rawLen) || cap(out) > int(rawLen) {
			t.Fatalf("accepted a stream as %d bytes (capacity %d), declared %d", len(out), cap(out), rawLen)
		}
		// What it built is a blob the walk can take apart again, and the
		// difference it finds rebuilds the same blob: the stream said
		// something, if not in the one way the encoder would have.
		d, ok := diffState(base, out)
		if !ok {
			// The walk refuses a base it cannot parse and non-minimal
			// values, which a copied base can carry into the result.
			return
		}
		again, err := applySparseDiff(base, d.appendSparse(nil), uint64(rawLen))
		if err != nil || !bytes.Equal(again, out) {
			t.Fatalf("the result's own diff does not rebuild it (err %v)", err)
		}
	})
}

// TestSparseDiffAllocatesWithinDeclaredLength: streams that announce far
// more than they hold — differences, a gap, values beside the mode, ones
// in a row — are refused without anything being allocated on the way but
// the declared length and an error.
func TestSparseDiffAllocatesWithinDeclaredLength(t *testing.T) {
	base, next, _, _ := diffFixture()
	for name, write := range map[string]func(*bitWriter) (m uint64){
		"count beyond the bits":  func(w *bitWriter) uint64 { w.put(0, 6); return 1 << 40 },
		"count beyond the state": func(w *bitWriter) uint64 { w.put(0, 32); w.put(0, 32); w.put(0, 32); return uint64(len(next)) },
		"gap beyond the state":   func(w *bitWriter) uint64 { w.put(0, 6); w.rice(1<<60, 0); w.put(0, 7); w.rice(0, 0); return 1 },
		"values beside the mode > m": func(w *bitWriter) uint64 {
			w.put(0, 6)
			w.rice(0, 0)
			w.put(1, 1)
			w.rice(0, 0)
			w.rice(1<<40, 0)
			return 1
		},
		"unary run of sixty-four ones": func(w *bitWriter) uint64 { w.put(0, 6); w.put(1<<32-1, 32); w.put(1<<32-1, 32); return 1 },
	} {
		var body bitWriter
		m := write(&body)
		stream := append(binary.AppendUvarint(append([]byte(nil), next[:2]...), m), body.flush()...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := applySparseDiff(base.State, stream, uint64(len(next)))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(next))+512 {
			t.Errorf("%s: %d bytes allocated on the way to refusing a diff of a %d-byte state", name, got, len(next))
		}
	}
}
