package wire

import (
	"math"
	"math/rand/v2"
	"testing"
)

// poisson draws from Poisson(lambda) by Knuth's product of uniforms,
// which is exact and fast enough for the lambdas of these tests.
func poisson(r *rand.Rand, lambda float64) uint64 {
	limit, p := math.Exp(-lambda), 1.0
	for k := uint64(0); ; k++ {
		if p *= r.Float64(); p <= limit {
			return k
		}
	}
}

// counterShape is n counters holding Poisson(fill) reports each, and the
// same after every counter took Poisson(lambda) more.
func counterShape(seed uint64, n int, fill, lambda float64) (base, next []byte) {
	r := rand.New(rand.NewPCG(seed, 1))
	b, x := make([]uint64, n), make([]uint64, n)
	for i := range b {
		b[i] = poisson(r, fill)
		x[i] = b[i] + poisson(r, lambda)
	}
	return counterBlob(b), counterBlob(x)
}

// coefficientShape is n zig-zag Hadamard coefficients after a ±1 walk of
// Poisson(fill) steps each, and the same after Poisson(lambda) steps more.
func coefficientShape(seed uint64, n int, fill, lambda float64) (base, next []byte) {
	r := rand.New(rand.NewPCG(seed, 2))
	walk := func(v int64, steps uint64) int64 {
		for range steps {
			v += int64(r.IntN(2))*2 - 1
		}
		return v
	}
	b, x := make([]uint64, n), make([]uint64, n)
	for i := range b {
		v := walk(0, poisson(r, fill))
		b[i], x[i] = zigzag(v), zigzag(walk(v, poisson(r, lambda)))
	}
	return counterBlob(b), counterBlob(x)
}

// BenchmarkDiffComponent times the path a delta pull takes through this
// package, which bench/'s wire.encode_delta_us (whole components) does
// not: one component against its base through packer.component, and the
// frame that ships it through DecodeComponentFrameWith. The shapes are
// the benchmark workloads' (a 1,024-report batch into the 2^16 counters
// of fleet-pull, which are one byte each, and of view-wide, which are
// two; the 75 values of a d=8 coefficient state, most
// of them moved; 170 counters of a d=8 marginal state, few of them moved)
// and the regime where the dense rung wins.
func BenchmarkDiffComponent(b *testing.B) {
	type shape struct {
		name       string
		base, next []byte
	}
	var shapes []shape
	add := func(name string, base, next []byte) { shapes = append(shapes, shape{name, base, next}) }
	base, next := counterShape(1, 1<<16, 32, 0.016)
	add("65536values/1.6%moved", base, next)
	base, next = counterShape(5, 1<<16, 192, 0.016)
	add("65536values/1.6%moved/two-byte", base, next)
	base, next = counterShape(2, 1<<16, 32, 16)
	add("65536values/100%moved", base, next)
	base, next = coefficientShape(3, 75, 40, 1.9)
	add("75values/85%moved", base, next)
	base, next = counterShape(4, 170, 6, 0.17)
	add("170values/16%moved", base, next)

	for _, sh := range shapes {
		c := StateComponent{ID: "e", Version: goldenLabel + 9, N: 1, State: sh.next,
			Base: &ComponentBase{Version: goldenLabel + 7, State: sh.base, Sparse: true}}
		lookup := func(string) (ComponentBase, bool) { return *c.Base, true }
		b.Run(sh.name+"/encode", func(b *testing.B) {
			var pk packer
			shipped := 0
			for b.Loop() {
				_, head, payload, err := pk.component(c)
				if err != nil {
					b.Fatal(err)
				}
				shipped = len(head) + len(payload)
			}
			b.ReportMetric(float64(shipped), "shipped-bytes")
		})
		// The frame a node ships the component in, in the default form and
		// in the compact one, with its nine-byte salted labels.
		frame := func(b *testing.B, compact bool) []byte {
			buf, err := EncodeComponentFrame(ComponentFrame{NodeID: "e", Version: c.Version, Delta: true, BaseVersion: c.Base.Version, N: 1,
				Components: []StateComponent{c}, Compact: compact})
			if err != nil {
				b.Fatal(err)
			}
			return buf
		}
		b.Run(sh.name+"/decode", func(b *testing.B) {
			buf := frame(b, false)
			for b.Loop() {
				if _, err := DecodeComponentFrameWith(buf, testMaxRaw, lookup); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "frame-bytes")
			b.ReportMetric(float64(len(frame(b, true))), "compact-frame-bytes")
		})
	}
}
