package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// foldSet is the current contribution set a FoldArena test offers to
// Sync, with a count of how often the arena fetched an aggregator.
type foldSet struct {
	vers    map[int]uint64
	aggs    map[int]Aggregator
	fetches int
}

func newFoldSet() *foldSet {
	return &foldSet{vers: make(map[int]uint64), aggs: make(map[int]Aggregator)}
}

func (s *foldSet) put(key int, agg Aggregator) {
	s.vers[key]++
	s.aggs[key] = agg
}

func (s *foldSet) drop(key int) {
	delete(s.vers, key)
	delete(s.aggs, key)
}

func (s *foldSet) keys() []int {
	keys := make([]int, 0, len(s.aggs))
	for k := range s.aggs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (s *foldSet) parts() []Part {
	var parts []Part
	for _, k := range s.keys() {
		agg := s.aggs[k]
		parts = append(parts, Part{Key: k, Version: s.vers[k], Agg: func(Aggregator) (Aggregator, error) {
			s.fetches++
			return agg, nil
		}})
	}
	return parts
}

// merged is a fresh merge of the current set, the state an arena must
// hold after a Sync.
func (s *foldSet) merged(tb testing.TB, empty func() Aggregator) []byte {
	tb.Helper()
	out := empty()
	for _, k := range s.keys() {
		if err := out.Merge(s.aggs[k]); err != nil {
			tb.Fatal(err)
		}
	}
	b, err := out.MarshalState()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func assertFoldState(tb testing.TB, step int, a *FoldArena, want []byte) {
	tb.Helper()
	got, err := a.State().MarshalState()
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		tb.Fatalf("step %d: arena state differs from a fresh merge of the current set", step)
	}
}

// TestFoldArenaMatchesFreshMerge runs random add / replace / drop
// sequences over all six protocols: after every Sync the arena's state
// is byte-identical to a fresh merge of the current set, it folded
// exactly the parts that changed, and it fetched only those.
func TestFoldArenaMatchesFreshMerge(t *testing.T) {
	for _, kind := range AllKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := New(kind, deltaTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			reps := deltaReports(t, p, 3000, uint64(kind)+31)
			r := rand.New(rand.NewSource(int64(kind) + 3))
			contribution := func() Aggregator {
				agg := p.NewAggregator()
				lo := r.Intn(len(reps) - 60)
				if err := agg.ConsumeBatch(reps[lo : lo+1+r.Intn(60)]); err != nil {
					t.Fatal(err)
				}
				return agg
			}
			a := NewFoldArena(p.NewAggregator)
			set := newFoldSet()
			synced := map[int]uint64{}
			next := 0
			for step := 0; step < 40; step++ {
				for ops := r.Intn(4); ops > 0; ops-- {
					keys := set.keys()
					switch op := r.Intn(3); {
					case op == 0 || len(keys) == 0:
						set.put(next, contribution())
						next++
					case op == 1:
						set.put(keys[r.Intn(len(keys))], contribution())
					default:
						set.drop(keys[r.Intn(len(keys))])
					}
				}
				moved := 0
				for k, v := range set.vers {
					if w, ok := synced[k]; !ok || w != v {
						moved++
					}
				}
				for k := range synced {
					if _, ok := set.vers[k]; !ok {
						moved++
					}
				}
				synced = make(map[int]uint64, len(set.vers))
				for k, v := range set.vers {
					synced[k] = v
				}
				fetched := set.fetches
				touched, err := a.Sync(set.parts())
				if err != nil {
					t.Fatal(err)
				}
				if touched != moved || !a.Primed() {
					t.Fatalf("step %d: folded %d parts after %d changes (primed %v)", step, touched, moved, a.Primed())
				}
				if got := set.fetches - fetched; got > touched {
					t.Fatalf("step %d: fetched %d aggregators to fold %d parts", step, got, touched)
				}
				assertFoldState(t, step, a, set.merged(t, p.NewAggregator))
			}
		})
	}
}

// failingUnmerge is a protocol aggregator whose Unmerge fails while fail
// is set.
type failingUnmerge struct {
	Aggregator
	fail *bool
}

func (a failingUnmerge) Counters() *CounterBlock { return noDeltaAgg{a.Aggregator}.Counters() }

func (a failingUnmerge) Unmerge(other Aggregator) error {
	if *a.fail {
		return errors.New("unmerge refused")
	}
	return a.Aggregator.(Folder).Unmerge(other)
}

func (a failingUnmerge) CopyStateFrom(other Aggregator) error {
	return a.Aggregator.(Folder).CopyStateFrom(other)
}

// TestFoldArenaRecapturesAfterFailedUnmerge: a fold whose Unmerge fails
// un-primes the arena, and the next Sync recaptures cold — every part,
// in the caller's order — onto a state equal to a fresh merge.
func TestFoldArenaRecapturesAfterFailedUnmerge(t *testing.T) {
	p, err := New(MargPS, deltaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	fail := false
	empty := func() Aggregator { return failingUnmerge{p.NewAggregator(), &fail} }
	reps := deltaReports(t, p, 300, 41)
	set := newFoldSet()
	for i := 0; i < 3; i++ {
		agg := p.NewAggregator()
		if err := agg.ConsumeBatch(reps[i*100 : (i+1)*100]); err != nil {
			t.Fatal(err)
		}
		set.put(i, agg)
	}
	a := NewFoldArena(empty)
	if _, err := a.Sync(set.parts()); err != nil || !a.Primed() {
		t.Fatalf("first sync: %v, primed %v", err, a.Primed())
	}
	set.drop(1)
	fail = true
	if _, err := a.Sync(set.parts()); err == nil {
		t.Fatal("a sync whose unmerge failed succeeded")
	}
	if a.Primed() {
		t.Fatal("arena still primed after a failed fold")
	}
	fail = false
	if touched, err := a.Sync(set.parts()); err != nil || touched != 2 || !a.Primed() {
		t.Fatalf("sync after the failure folded %d parts (%v), want a cold capture of 2", touched, err)
	}
	assertFoldState(t, 0, a, set.merged(t, p.NewAggregator))
}
