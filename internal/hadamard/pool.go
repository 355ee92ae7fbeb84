package hadamard

import "sync"

// Pooled scratch vectors. Reconstruction kernels need power-of-two
// float64 workspaces — up to 2^d elements for a full-domain transform —
// on every epoch refresh; pooling them keeps the steady-state refresh
// path allocation-free. Pools are segregated by exact length (the
// lengths in play are the handful of 2^k and 2^d sizes of one
// deployment), so a Get never returns a shorter vector than asked for.

var vecPools sync.Map // int -> *sync.Pool of []float64

func poolFor(n int) *sync.Pool {
	if p, ok := vecPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := vecPools.LoadOrStore(n, &sync.Pool{
		New: func() any { return make([]float64, n) },
	})
	return p.(*sync.Pool)
}

// GetVec returns a length-n scratch vector from the pool. Contents are
// arbitrary; callers must overwrite it before reading.
func GetVec(n int) []float64 {
	return poolFor(n).Get().([]float64)
}

// PutVec returns a vector obtained from GetVec to its pool. The caller
// must not use v afterwards.
func PutVec(v []float64) {
	if len(v) == 0 {
		return
	}
	poolFor(len(v)).Put(v) //nolint:staticcheck // slices share a pool per length
}
