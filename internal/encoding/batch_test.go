package encoding

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/rng"
)

func TestBatchRoundTrip(t *testing.T) {
	reps := []core.Report{
		{Beta: 0b11, Index: 1, Sign: 1},
		{Beta: 0b101, Index: 3, Sign: -1},
		{Beta: 0b110, Index: 2, Sign: 1},
	}
	buf, err := MarshalBatch("MargHT", reps)
	if err != nil {
		t.Fatal(err)
	}
	tag, got, err := UnmarshalBatch(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tag != TagMargHT || !reflect.DeepEqual(reps, got) {
		t.Fatalf("round trip: tag %d, reports %+v", tag, got)
	}
}

func TestUnmarshalBatchEnforcesMaxReports(t *testing.T) {
	reps := make([]core.Report, 5)
	for i := range reps {
		reps[i] = core.Report{Index: uint64(i)}
	}
	buf, err := MarshalBatch("InpPS", reps)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := UnmarshalBatch(buf, 5); err != nil || len(got) != 5 {
		t.Fatalf("batch at the limit rejected: %v", err)
	}
	if _, _, err := UnmarshalBatch(buf, 4); err == nil || !strings.Contains(err.Error(), "exceeds 4 reports") {
		t.Fatalf("over-limit batch error = %v", err)
	}
}

func TestUnmarshalBatchRejectsOversizedFrame(t *testing.T) {
	var buf []byte
	buf = append(buf, 0xff, 0xff, 0x7f) // uvarint length ~2M > MaxFrameBytes
	if _, _, err := UnmarshalBatch(buf, 0); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// benchBody is a /report/batch body of n reports of the protocol, the
// way the end-to-end benchmark builds its inputs: zipf(1.1)-skewed
// records over the 2^d domain, perturbed at eps = ln 3 with the
// optimized parameters.
func benchBody(b *testing.B, kind core.Kind, d, k, n int) []byte {
	b.Helper()
	p, err := core.New(kind, core.Config{D: d, K: k, Epsilon: math.Log(3), OptimizedPRR: true})
	if err != nil {
		b.Fatal(err)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(20180610)), 1.1, 1, 1<<d-1)
	r := rng.New(20180610)
	client := p.NewClient()
	reps := make([]core.Report, n)
	for i := range reps {
		if reps[i], err = client.Perturb(zipf.Uint64(), r); err != nil {
			b.Fatal(err)
		}
	}
	body, err := MarshalBatch(p.Name(), reps)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkUnmarshalBatchEndsInto decodes, into reused slices, the
// bodies of the end-to-end workloads' three inline shapes at their
// sizes: view-wide's and fleet-pull's InpPS d=16 x 1,024, ingest-narrow's
// InpHT d=8 x 256 and durable-mixed's MargPS d=8 x 16.
func BenchmarkUnmarshalBatchEndsInto(b *testing.B) {
	for _, c := range []struct {
		kind    core.Kind
		d, k, n int
	}{
		{core.InpPS, 16, 3, 1024},
		{core.InpHT, 8, 2, 256},
		{core.MargPS, 8, 2, 16},
	} {
		b.Run(fmt.Sprintf("%s/d=%d/n=%d", c.kind, c.d, c.n), func(b *testing.B) {
			body := benchBody(b, c.kind, c.d, c.k, c.n)
			_, reps, ends, err := UnmarshalBatchEndsInto(body, 0, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, reps, ends, err = UnmarshalBatchEndsInto(body, 0, reps, ends); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/report")
		})
	}
}
