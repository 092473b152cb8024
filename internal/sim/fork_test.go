package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index in [0, n) must be visited exactly once, for any degree and
// any n — the chunking is a pure function of (n, degree).
func TestWorkersForCoverage(t *testing.T) {
	for _, deg := range []int{-1, 0, 1, 2, 3, 4, 8, 16} {
		for _, n := range []int{0, 1, 255, 256, 257, 512, 513, 1000, 4099} {
			visits := make([]int32, n)
			forDegree(n, deg, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("deg=%d n=%d: bad chunk [%d,%d)", deg, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("deg=%d n=%d: index %d visited %d times", deg, n, i, v)
				}
			}
		}
	}
}

// Small inputs must run inline: a single chunk spanning the whole range.
func TestWorkersForSmallInputInline(t *testing.T) {
	var chunks [][2]int
	forDegree(2*forMinPerChunk-1, 8, func(lo, hi int) {
		chunks = append(chunks, [2]int{lo, hi})
	})
	if len(chunks) != 1 || chunks[0] != [2]int{0, 2*forMinPerChunk - 1} {
		t.Fatalf("small input split into %v", chunks)
	}
	For(0, func(lo, hi int) { t.Error("For(0) called fn") })
}

// TestForksFloor pins the fork floor at two CPUs: the 200-node paper field
// stays serial and a 2000-node field forks. Forks must also agree with the
// number of chunks For actually runs.
func TestForksFloor(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	if Forks(200) {
		t.Error("Forks(200) = true at degree 2; the paper field must stay serial")
	}
	if !Forks(2000) {
		t.Error("Forks(2000) = false at degree 2; a large field must fork")
	}
	for _, n := range []int{0, 200, 511, 512, 2000} {
		var calls atomic.Int32
		For(n, func(lo, hi int) { calls.Add(1) })
		if got := calls.Load() > 1; got != Forks(n) {
			t.Errorf("n=%d: For ran %d chunks but Forks = %v", n, calls.Load(), Forks(n))
		}
	}
	runtime.GOMAXPROCS(1)
	if Forks(2000) {
		t.Error("Forks(2000) = true at degree 1")
	}
}
