package loop

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEveryCallsUntilStopped(t *testing.T) {
	var calls atomic.Int64
	stop := Every(time.Millisecond, func() { calls.Add(1) })
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d calls in 5s at a 1ms period", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	after := calls.Load()
	time.Sleep(20 * time.Millisecond)
	if got := calls.Load(); got != after {
		t.Fatalf("%d calls after stop returned", got-after)
	}
}

// TestStopJoinsTheRunningCall pins the join: a stop that arrives while
// fn runs returns only after that call has returned.
func TestStopJoinsTheRunningCall(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var returned atomic.Bool
	var once sync.Once
	stop := Every(time.Millisecond, func() {
		once.Do(func() { close(entered) })
		<-release
		returned.Store(true)
	})
	<-entered
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while fn was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	if !returned.Load() {
		t.Fatal("stop returned before fn did")
	}
}

// TestStopIsIdempotentAndLeavesNoGoroutine calls stop from several
// goroutines and again afterwards: every call returns, and the loop's
// goroutine is gone.
func TestStopIsIdempotentAndLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	stop := Every(time.Millisecond, func() {})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop()
		}()
	}
	wg.Wait()
	stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after stop, want <= %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
