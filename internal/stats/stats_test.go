package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 || s.StdDev() != 0 ||
		s.StdErr() != 0 || s.CI() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.Quantile(0.5) != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestMeanVar(t *testing.T) {
	var s Sample
	s.AddAll(2, 4, 4, 4, 5, 5, 7, 9)
	if !close(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// population variance is 4; sample variance = 32/7
	if !close(s.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("var = %v", s.Var())
	}
	if !close(s.StdDev(), math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("stddev = %v", s.StdDev())
	}
}

func TestMinMax(t *testing.T) {
	var s Sample
	s.AddAll(3, -1, 7, 2)
	if s.Min() != -1 || s.Max() != 7 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(42)
	if s.Mean() != 42 || s.Var() != 0 || s.CI() != 0 {
		t.Fatal("single observation stats wrong")
	}
}

func TestQuantile(t *testing.T) {
	var s Sample
	s.AddAll(1, 2, 3, 4, 5)
	if s.Quantile(0) != 1 || s.Quantile(1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if !close(s.Quantile(0.5), 3, 1e-12) {
		t.Fatalf("median = %v", s.Quantile(0.5))
	}
	if !close(s.Quantile(0.25), 2, 1e-12) {
		t.Fatalf("q25 = %v", s.Quantile(0.25))
	}
	// Quantile must not mutate the sample order semantics.
	if s.Values()[0] != 1 {
		t.Fatal("Quantile mutated sample")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	var s Sample
	s.AddAll(0, 10)
	if !close(s.Quantile(0.3), 3, 1e-12) {
		t.Fatalf("interpolated quantile = %v", s.Quantile(0.3))
	}
}

func TestCI30Runs(t *testing.T) {
	// 30 runs (df=29) is the paper's configuration: t = 2.045.
	var s Sample
	for i := 0; i < 30; i++ {
		s.Add(float64(i % 2)) // alternating 0/1
	}
	wantSE := s.StdDev() / math.Sqrt(30)
	if !close(s.CI(), 2.045*wantSE, 1e-9) {
		t.Fatalf("CI = %v, want %v", s.CI(), 2.045*wantSE)
	}
}

func TestTCritical(t *testing.T) {
	if !close(tCritical95(1), 12.706, 1e-9) {
		t.Fatal("df=1 wrong")
	}
	if !close(tCritical95(29), 2.045, 1e-9) {
		t.Fatal("df=29 wrong")
	}
	if !close(tCritical95(30), 2.042, 1e-9) {
		t.Fatal("df=30 wrong")
	}
	if !close(tCritical95(35), 2.021, 1e-9) {
		t.Fatal("df=35 wrong")
	}
	if !close(tCritical95(50), 2.000, 1e-9) {
		t.Fatal("df=50 wrong")
	}
	if !close(tCritical95(100), 1.980, 1e-9) {
		t.Fatal("df=100 wrong")
	}
	if !close(tCritical95(10000), 1.960, 1e-9) {
		t.Fatal("large df wrong")
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Fatal("df=0 should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	var s Sample
	s.AddAll(1, 2, 3)
	sum := s.Summarize()
	if sum.N != 3 || !close(sum.Mean, 2, 1e-12) || sum.Min != 1 || sum.Max != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	if !close(sum.StdDev, 1, 1e-12) {
		t.Fatalf("summary stddev = %v", sum.StdDev)
	}
}

func TestValuesIsCopy(t *testing.T) {
	var s Sample
	s.AddAll(1, 2, 3)
	v := s.Values()
	v[0] = 99
	if s.Values()[0] != 1 {
		t.Fatal("Values leaked internal slice")
	}
}

// Property: variance is non-negative and mean lies within [min, max].
func TestQuickSampleInvariants(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, r := range raw {
			s.Add(float64(r))
		}
		if s.Var() < 0 {
			return false
		}
		m := s.Mean()
		return m >= s.Min()-1e-9 && m <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a constant shifts the mean by that constant and leaves
// the standard deviation unchanged.
func TestQuickShiftInvariance(t *testing.T) {
	f := func(raw []int8, shift int8) bool {
		if len(raw) < 2 {
			return true
		}
		var a, b Sample
		for _, r := range raw {
			a.Add(float64(r))
			b.Add(float64(r) + float64(shift))
		}
		return close(b.Mean(), a.Mean()+float64(shift), 1e-9) &&
			close(a.StdDev(), b.StdDev(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []int16, q1, q2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, r := range raw {
			s.Add(float64(r))
		}
		a := float64(q1) / 255
		b := float64(q2) / 255
		if a > b {
			a, b = b, a
		}
		return s.Quantile(a) <= s.Quantile(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelchTClearDifference(t *testing.T) {
	var a, b Sample
	for i := 0; i < 10; i++ {
		a.Add(10 + float64(i%3)*0.1)
		b.Add(20 + float64(i%3)*0.1)
	}
	r := WelchT(&a, &b)
	if !r.Significant {
		t.Fatalf("obvious difference not significant: %+v", r)
	}
	if r.T >= 0 {
		t.Fatalf("sign wrong: a < b should give negative T, got %v", r.T)
	}
}

func TestWelchTNoDifference(t *testing.T) {
	var a, b Sample
	vals := []float64{4.9, 5.1, 5.0, 4.8, 5.2, 5.0, 4.95, 5.05}
	for i, v := range vals {
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	r := WelchT(&a, &b)
	if r.Significant {
		t.Fatalf("same-distribution samples flagged significant: %+v", r)
	}
}

func TestWelchTEdgeCases(t *testing.T) {
	var a, b Sample
	a.Add(1)
	b.AddAll(1, 2, 3)
	if r := WelchT(&a, &b); !math.IsNaN(r.T) {
		t.Fatal("n<2 should yield NaN")
	}
	// Identical constants: zero variance, equal means.
	var c, d Sample
	c.AddAll(5, 5, 5)
	d.AddAll(5, 5, 5)
	if r := WelchT(&c, &d); r.Significant || r.T != 0 {
		t.Fatalf("identical constants: %+v", r)
	}
	// Zero variance, different means: exactly different.
	var e, f Sample
	e.AddAll(5, 5, 5)
	f.AddAll(6, 6, 6)
	if r := WelchT(&e, &f); !r.Significant {
		t.Fatal("constant-but-different samples should be significant")
	}
}

func TestWelchTSymmetry(t *testing.T) {
	var a, b Sample
	a.AddAll(1, 2, 3, 4, 5)
	b.AddAll(2, 3, 4, 5, 6)
	r1 := WelchT(&a, &b)
	r2 := WelchT(&b, &a)
	if !close(r1.T, -r2.T, 1e-12) || r1.DF != r2.DF || r1.Significant != r2.Significant {
		t.Fatalf("asymmetric: %+v vs %+v", r1, r2)
	}
}

// AddAll appends many observations.
func (s *Sample) AddAll(xs ...float64) { s.xs = append(s.xs, xs...) }
