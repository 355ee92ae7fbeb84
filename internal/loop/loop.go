// Package loop is the one lifecycle of a background ticker loop: start
// it, and stop it with a call that returns once it has exited.
package loop

import (
	"sync"
	"time"
)

// Every calls fn once per period on a goroutine of its own until the
// returned stop is called. A late tick is dropped, never queued, so a
// slow fn delays the next call instead of bunching calls up. stop is
// idempotent, safe to call from several goroutines, and returns once the
// last fn call has returned.
func Every(period time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(quit)
		<-done
	})
}
