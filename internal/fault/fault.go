// Package fault is a zero-dependency, deterministic fault-injection
// registry. Code under test declares named sites (plain strings like
// "store.wal.append") and consults the package at each one:
//
//	if err := fault.Hit(siteWALAppend); err != nil {
//	    return err // injected failure
//	}
//	body = fault.Mangle(siteClusterPullBody, body)
//
// When no rules are armed — the production steady state — every call
// costs a single atomic load and returns immediately; there are no
// locks, allocations, or map lookups on the disarmed path.
//
// Rules are armed programmatically (tests) via Arm, or from the
// -fault-spec dev flag via ParseSpec. Schedules are deterministic:
// each rule carries its own call counter, so "fail calls 51..80 at
// this site" replays identically run to run, and corruption is driven
// by a seeded PRNG so a corrupt frame is byte-identical across runs
// with the same seed.
package fault

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Mode selects what an armed rule does when its schedule fires.
type Mode int

const (
	// ModeError makes Hit return an injected error.
	ModeError Mode = iota
	// ModeCorrupt makes Mangle flip deterministic pseudo-random bits
	// in the payload.
	ModeCorrupt
)

// Rule describes one armed fault. The schedule counts calls at the
// rule's site: the first After calls pass untouched, the next Times
// calls fire, and later calls pass again. Times == 0 means the rule
// fires forever once past After (an ENOSPC-style persistent fault).
type Rule struct {
	Site  string
	Mode  Mode
	After int    // skip this many calls before firing
	Times int    // fire for this many calls; 0 = persistent
	Seed  uint64 // seeds the rule's private PRNG, which picks the bits ModeCorrupt flips
	Msg   string // ModeError message override
}

// InjectedError is the error type returned by fired ModeError rules,
// so tests and callers can distinguish injected failures with
// errors.As when needed.
type InjectedError struct {
	Site string
	Msg  string
}

func (e *InjectedError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("fault: %s: %s", e.Site, e.Msg)
	}
	return fmt.Sprintf("fault: injected error at %s", e.Site)
}

type armedRule struct {
	Rule
	calls atomic.Uint64 // consultations at this site since arming
	fired atomic.Uint64 // times the rule actually injected
	mu    sync.Mutex    // guards rng
	rng   *rand.Rand
}

// eligible advances the rule's call counter and reports whether this
// call should fire, honouring After and Times.
func (ar *armedRule) eligible() bool {
	n := ar.calls.Add(1)
	if n <= uint64(ar.After) {
		return false
	}
	if ar.Times > 0 && n > uint64(ar.After)+uint64(ar.Times) {
		return false
	}
	ar.fired.Add(1)
	return true
}

// Registry holds armed rules keyed by site. The zero value is unusable;
// construct with New. Most code uses the package-level Default registry
// through Hit, Mangle, Arm, and Disarm.
type Registry struct {
	armed atomic.Bool
	mu    sync.RWMutex
	rules map[string][]*armedRule
}

// New returns an empty, disarmed registry.
func New() *Registry {
	return &Registry{rules: make(map[string][]*armedRule)}
}

// Default is the process-wide registry consulted by the package-level
// convenience functions.
var Default = New()

// Arm adds rules to the registry and enables injection. Call counters
// start fresh for the added rules; existing rules are untouched.
func (r *Registry) Arm(rules ...Rule) {
	if len(rules) == 0 {
		return
	}
	r.mu.Lock()
	for _, rule := range rules {
		ar := &armedRule{Rule: rule}
		ar.rng = rand.New(rand.NewPCG(rule.Seed, rule.Seed^0x9e3779b97f4a7c15))
		r.rules[rule.Site] = append(r.rules[rule.Site], ar)
	}
	r.mu.Unlock()
	r.armed.Store(true)
}

// Disarm removes every rule and restores the single-atomic-load
// fast path.
func (r *Registry) Disarm() {
	r.armed.Store(false)
	r.mu.Lock()
	r.rules = make(map[string][]*armedRule)
	r.mu.Unlock()
}

// Hit consults error rules at site: the first that fires returns its
// injected error. Disarmed, it costs one atomic load.
func (r *Registry) Hit(site string) error {
	if !r.armed.Load() {
		return nil
	}
	r.mu.RLock()
	rules := r.rules[site]
	r.mu.RUnlock()
	for _, ar := range rules {
		if ar.Mode == ModeError && ar.eligible() {
			return &InjectedError{Site: site, Msg: ar.Msg}
		}
	}
	return nil
}

// Mangle consults corruption rules at site. If one fires it returns a
// corrupted copy of b (the input slice is never modified); otherwise
// it returns b unchanged. Disarmed, it costs one atomic load.
func (r *Registry) Mangle(site string, b []byte) []byte {
	if !r.armed.Load() {
		return b
	}
	r.mu.RLock()
	rules := r.rules[site]
	r.mu.RUnlock()
	for _, ar := range rules {
		if ar.Mode != ModeCorrupt || !ar.eligible() {
			continue
		}
		if len(b) == 0 {
			continue
		}
		out := make([]byte, len(b))
		copy(out, b)
		ar.mu.Lock()
		// Flip a handful of bits spread across the payload: enough to
		// defeat any CRC, deterministic under the rule's seed.
		flips := 1 + len(out)/64
		for i := 0; i < flips; i++ {
			pos := ar.rng.IntN(len(out))
			bit := ar.rng.IntN(8)
			out[pos] ^= 1 << bit
		}
		ar.mu.Unlock()
		b = out
	}
	return b
}

// Fired returns the total number of injections fired across all sites.
func (r *Registry) Fired() uint64 {
	var n uint64
	r.mu.RLock()
	for _, rules := range r.rules {
		for _, ar := range rules {
			n += ar.fired.Load()
		}
	}
	r.mu.RUnlock()
	return n
}

// Hit consults the Default registry at site. See Registry.Hit.
func Hit(site string) error {
	if !Default.armed.Load() {
		return nil
	}
	return Default.Hit(site)
}

// Mangle consults the Default registry at site. See Registry.Mangle.
func Mangle(site string, b []byte) []byte {
	if !Default.armed.Load() {
		return b
	}
	return Default.Mangle(site, b)
}

// Arm adds rules to the Default registry.
func Arm(rules ...Rule) { Default.Arm(rules...) }

// Disarm clears the Default registry.
func Disarm() { Default.Disarm() }
