package rng

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := New(7)
	b := New(7)
	// Consume different amounts from each parent before splitting.
	a.Float64()
	for i := 0; i < 50; i++ {
		b.Float64()
	}
	ca := a.Split("mobility")
	cb := b.Split("mobility")
	for i := 0; i < 20; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatalf("split streams depend on parent consumption (draw %d)", i)
		}
	}
}

func TestSplitPathsDistinct(t *testing.T) {
	root := New(9)
	a := root.Split("a").Split("b")
	b := root.Split("a/b") // different derivation path structure, same flat name
	// These SHOULD be equal because Split concatenates with "/" — document it.
	if a.Float64() != b.Float64() {
		t.Fatal("path derivation should be by flattened name")
	}
	c := root.Split("c")
	d := root.Split("d")
	if c.Float64() == d.Float64() && c.Float64() == d.Float64() {
		t.Fatal("sibling streams identical")
	}
}

func TestSplitIndex(t *testing.T) {
	root := New(3)
	a := root.SplitIndex("node", 1)
	b := root.SplitIndex("node", 2)
	if a.Name() == b.Name() {
		t.Fatal("SplitIndex names collide")
	}
	if a.Float64() == b.Float64() {
		// one coincidence is possible but astronomically unlikely with floats
		t.Fatal("SplitIndex streams identical on first draw")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-3, 12)
		if v < -3 || v >= 12 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	s := New(6)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Uniform(0, 10)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("Uniform(0,10) mean = %v, want ≈5", mean)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(8)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exponential(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("Exponential(2.5) mean = %v", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(10)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(<0) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(>1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestMixInjectiveOnSample(t *testing.T) {
	seen := map[int64]int64{}
	for i := int64(-5000); i < 5000; i++ {
		m := mix(i)
		if prev, ok := seen[m]; ok {
			t.Fatalf("mix collision: mix(%d) == mix(%d)", i, prev)
		}
		seen[m] = i
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 1: "1", -1: "-1", 12345: "12345", -987: "-987"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Errorf("itoa(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestQuickUniformWithinBounds(t *testing.T) {
	s := New(12)
	f := func(lo float64, width uint8) bool {
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.Abs(lo) > 1e12 {
			return true // skip degenerate inputs
		}
		hi := lo + float64(width) + 1
		v := s.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSplitDeterminism(t *testing.T) {
	f := func(seed int64, name string) bool {
		if name == "" {
			return true
		}
		a := New(seed).Split(name)
		b := New(seed).Split(name)
		return a.Int63() == b.Int63()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSourceMatchesMathRand holds lfSource to math/rand's generator, draw
// for draw: 10 000 Uint64s per seed, past the 334 draws that seed the
// register lazily, and then each rand.Rand method the tree calls. The
// seeds cover math/rand's reduction (0, negatives, multiples of 2^31−1
// and the 89482311 that stands in for zero, the int64 extremes) and the
// mixed 64-bit seeds New and Split actually pass.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m - 1, m, -m, 2 * m, 89482311, math.MinInt64, math.MaxInt64}
	for i := int64(1); i <= 20; i++ {
		seeds = append(seeds, mix(i))
	}
	for _, seed := range seeds {
		got, want := newLFSource(seed), rand.NewSource(seed).(rand.Source64)
		for d := 1; d <= 10000; d++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %#x, math/rand draws %#x", seed, d, g, w)
			}
		}
		gr, wr := rand.New(newLFSource(seed)), rand.New(rand.NewSource(seed))
		for d := 0; d < 200; d++ {
			if g, w := gr.Float64(), wr.Float64(); g != w {
				t.Fatalf("seed %d: Float64 %d = %v, want %v", seed, d, g, w)
			}
			if g, w := gr.Intn(1000+d), wr.Intn(1000+d); g != w {
				t.Fatalf("seed %d: Intn %d = %d, want %d", seed, d, g, w)
			}
			if g, w := gr.ExpFloat64(), wr.ExpFloat64(); g != w {
				t.Fatalf("seed %d: ExpFloat64 %d = %v, want %v", seed, d, g, w)
			}
		}
		gp, wp := gr.Perm(50), wr.Perm(50)
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("seed %d: Perm = %v, want %v", seed, gp, wp)
			}
		}
		gb, wb := make([]byte, 77), make([]byte, 77)
		_, _ = gr.Read(gb)
		_, _ = wr.Read(wb)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("seed %d: Read = %x, want %x", seed, gb, wb)
		}
		if g, w := gr.Int63(), wr.Int63(); g != w {
			t.Fatalf("seed %d: Int63 after the helpers = %d, want %d", seed, g, w)
		}
	}
}
