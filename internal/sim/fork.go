package sim

import (
	"runtime"
	"sync"
)

// forMinPerChunk is the smallest per-chunk item count worth a goroutine:
// For uses at most n/forMinPerChunk chunks, so it runs inline below twice
// this many items. At 256,
// fields of up to 511 nodes stay serial — the paper's 200-node field among
// them, which campaigns already spread one simulation per CPU — while a
// 2000-node field forks on two CPUs (see EXPERIMENTS.md, "Parallel
// sweeps").
const forMinPerChunk = 256

// For calls fn over a partition of [0, n) into at most GOMAXPROCS contiguous
// chunks, concurrently, and returns when every call has. It serves the
// world build's per-node loops (network nodes, mobility walkers). fn must
// write only disjoint index ranges of caller-owned slices and read only
// state that is immutable for the duration of the call. Nothing that draws
// from a shared rng stream, touches the event queue, or appends to a shared
// slice may run under For; those stay sequential, so results are
// byte-identical for any degree.
//
// Chunking is a fixed rule of (n, degree), never of timing. Goroutines are
// spawned per call and joined before For returns: there is no persistent
// pool to leak across the thousands of arena reuses a campaign performs.
func For(n int, fn func(lo, hi int)) {
	forDegree(n, runtime.GOMAXPROCS(0), fn)
}

// Forks reports whether For(n, ...) would run on more than one goroutine.
// Callers with a cheaper serial twin (one that allocates no closure) branch
// on it. The size test comes first so small fields never query GOMAXPROCS.
func Forks(n int) bool {
	return n >= 2*forMinPerChunk && runtime.GOMAXPROCS(0) > 1
}

// forDegree is For at an explicit parallel degree.
func forDegree(n, degree int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := min(degree, n/forMinPerChunk)
	if chunks <= 1 {
		fn(0, n)
		return
	}
	// Fixed chunking: chunk i covers [i*size, min((i+1)*size, n)). The
	// bounds depend only on (n, chunks), never on timing.
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for i := 1; i < chunks; i++ {
		lo := i * size
		hi := min(lo+size, n)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		//lint:allowsharedstate fork-join worker: fn writes only disjoint index ranges of caller-owned slices and reads only immutable state; joined before For returns, so no state is shared across the barrier
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, min(size, n))
	wg.Wait()
}
