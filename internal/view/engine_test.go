package view

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ldpmarginals/internal/core"
	"ldpmarginals/internal/rng"
)

func testProtocol(t *testing.T) core.Protocol {
	t.Helper()
	p, err := core.New(core.InpHT, core.Config{D: 6, K: 2, Epsilon: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func feed(t *testing.T, p core.Protocol, agg *core.ShardedAggregator, n int, seed uint64) {
	t.Helper()
	client := p.NewClient()
	r := rng.New(seed)
	reps := make([]core.Report, n)
	for i := range reps {
		rep, err := client.Perturb(uint64(i%64), r)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if err := agg.ConsumeBatch(reps); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// noFoldProto builds aggregators that hide Unmerge and CopyStateFrom.
type noFoldProto struct{ core.Protocol }

func (p noFoldProto) NewAggregator() core.Aggregator {
	return struct{ core.Aggregator }{p.Protocol.NewAggregator()}
}

// TestEngineInitialEpochServesImmediately: NewEngine publishes epoch 1
// before it returns, and refuses a protocol that cannot fold.
func TestEngineInitialEpochServesImmediately(t *testing.T) {
	p := testProtocol(t)
	if _, err := NewEngine(core.NewSharded(p, 0), noFoldProto{p}, EngineOptions{}); err == nil {
		t.Fatal("engine accepted a protocol whose aggregators cannot fold")
	}
	eng, err := NewEngine(core.NewSharded(p, 0), p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	v := eng.Current()
	if v == nil || v.Epoch != 1 || v.N != 0 {
		t.Fatalf("initial view %+v, want epoch 1 over 0 reports", v)
	}
	if _, err := v.Marginal(0b11); err != nil {
		t.Fatalf("empty epoch must still answer: %v", err)
	}
}

func TestManualRefreshAdvancesEpochAndAbsorbsBacklog(t *testing.T) {
	p := testProtocol(t)
	agg := core.NewSharded(p, 0)
	eng, err := NewEngine(agg, p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	feed(t, p, agg, 1234, 7)
	if v := eng.Current(); v.N != 0 || v.Staleness(agg.N()) != 1234 {
		t.Fatalf("pre-refresh view N=%d staleness=%d", v.N, v.Staleness(agg.N()))
	}
	v, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 2 || v.N != 1234 || eng.Current() != v {
		t.Fatalf("refreshed view epoch=%d N=%d", v.Epoch, v.N)
	}
}

func TestIntervalPolicyRefreshes(t *testing.T) {
	p := testProtocol(t)
	agg := core.NewSharded(p, 0)
	eng, err := NewEngine(agg, p, EngineOptions{
		RefreshInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	feed(t, p, agg, 50, 3)
	if !waitFor(t, 2*time.Second, func() bool { return eng.Current().N == 50 }) {
		t.Fatalf("interval policy never refreshed (view N=%d)", eng.Current().N)
	}
}

// TestIntervalPolicySustainsCadence pins the refresh period to roughly
// the configured RefreshInterval: the due-check must not slip a whole
// period (refreshing at 2x the interval) nor rebuild on every wake-up. A feeder
// keeps reports trickling in so every interval has a real delta — an
// unchanged source no longer publishes epochs (the zero-delta fast
// path republishes the serving view instead).
func TestIntervalPolicySustainsCadence(t *testing.T) {
	p := testProtocol(t)
	agg := core.NewSharded(p, 0)
	const interval = 200 * time.Millisecond
	start := time.Now()
	eng, err := NewEngine(agg, p, EngineOptions{RefreshInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval / 8)
		defer ticker.Stop()
		for seed := uint64(100); ; seed++ {
			select {
			case <-stop:
				return
			case <-ticker.C:
				feed(t, p, agg, 1, seed)
			}
		}
	}()
	time.Sleep(15 * interval)
	close(stop)
	<-done
	got := eng.Epoch()
	elapsed := time.Since(start)
	// A correctly paced loop publishes ~elapsed/interval epochs. The
	// bounds derive from the measured elapsed time (not the nominal
	// sleep) so a slow CI box widens them: a loop that slips to 2x the
	// interval lands under min, one that rebuilds every tick blows past
	// max.
	min := int64(float64(elapsed) / float64(interval) / 1.5)
	max := int64(elapsed/interval) + 4
	if got < min || got > max {
		t.Fatalf("published %d epochs over %v at interval %v, want within [%d, %d]", got, elapsed, interval, min, max)
	}
}

// slowSource delays every capture and relabels every part with a fresh
// version, so each capture refolds the whole source and each Refresh
// that gets past coalescing rebuilds and advances the epoch, widening
// the window in which concurrent Refresh callers pile up on the build
// mutex.
type slowSource struct {
	Source
	delay    time.Duration
	captures uint64 // guarded by the engine's build lock
}

func (s *slowSource) AppendParts(dst []core.Part) []core.Part {
	time.Sleep(s.delay)
	s.captures++
	dst = s.Source.AppendParts(dst)
	for i := range dst {
		dst[i].Version = s.captures
	}
	return dst
}

// TestConcurrentRefreshesCoalesce fires a burst of simultaneous Refresh
// calls and checks single-flight coalescing: callers that waited out
// another build adopt its epoch instead of each running a redundant
// full rebuild, so the burst publishes far fewer epochs than callers.
func TestConcurrentRefreshesCoalesce(t *testing.T) {
	p := testProtocol(t)
	agg := core.NewSharded(p, 0)
	eng, err := NewEngine(&slowSource{Source: agg, delay: 20 * time.Millisecond}, p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before := eng.Epoch()
	const callers = 16
	start := make(chan struct{})
	views := make([]*View, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			views[i], errs[i] = eng.Refresh()
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if views[i] == nil || views[i].Epoch <= before {
			t.Fatalf("caller %d got epoch %v, want a post-burst epoch", i, views[i])
		}
	}
	// Entries racing the first snapshot stamp can still rebuild; the
	// bulk of the burst must coalesce.
	if built := eng.Epoch() - before; built >= callers/2 {
		t.Fatalf("burst of %d refreshes built %d epochs, want most coalesced", callers, built)
	}
}

// failingSource adds a part that fails to fold while fail is set,
// proving a failed refresh keeps the previous epoch serving.
type failingSource struct {
	Source
	fail bool
}

func (f *failingSource) AppendParts(dst []core.Part) []core.Part {
	dst = f.Source.AppendParts(dst)
	if f.fail {
		dst = append(dst, core.Part{Key: f, Agg: func(core.Aggregator) (core.Aggregator, error) {
			return nil, errors.New("disk on fire")
		}})
	}
	return dst
}

func TestRefreshFailureKeepsServingPreviousEpoch(t *testing.T) {
	p := testProtocol(t)
	agg := core.NewSharded(p, 0)
	src := &failingSource{Source: agg}
	eng, err := NewEngine(src, p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	prev := eng.Current()
	src.fail = true
	if _, err := eng.Refresh(); err == nil {
		t.Fatal("refresh over a failing source must error")
	}
	if eng.Current() != prev || eng.Epoch() != prev.Epoch {
		t.Fatal("failed refresh replaced the serving view")
	}
	src.fail = false
	v, err := eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != prev.Epoch+1 {
		t.Fatalf("recovered epoch %d, want %d", v.Epoch, prev.Epoch+1)
	}
}

func TestEngineCloseIsIdempotent(t *testing.T) {
	p := testProtocol(t)
	eng, err := NewEngine(core.NewSharded(p, 0), p, EngineOptions{
		RefreshInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close()
	if _, err := eng.Refresh(); err != nil {
		t.Fatalf("manual refresh after Close: %v", err)
	}
}
