// Package stats provides the summary statistics used by the evaluation
// harness: means, standard deviations, and Student-t confidence intervals
// over independent simulation runs (the paper averages 30 runs and draws
// "I"-shaped confidence intervals, Section 5.2).
package stats

import (
	"math"
	"sort"
)

// Sample accumulates observations and reports summary statistics.
// The zero value is an empty sample ready for use.
type Sample struct {
	xs []float64
}

// Add appends one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Var returns the unbiased sample variance (n-1 denominator); 0 when n < 2.
func (s *Sample) Var() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(len(s.xs)))
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	sorted := s.Values()
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CI returns the half-width of the two-sided 95% Student-t confidence
// interval for the mean; mean ± CI covers the true mean with 95% confidence
// under normality. Returns 0 when n < 2.
func (s *Sample) CI() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * s.StdErr()
}

// Summary is a compact, copyable report of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
	Min    float64
	Max    float64
}

// Summarize produces a Summary of the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:      s.N(),
		Mean:   s.Mean(),
		StdDev: s.StdDev(),
		CI95:   s.CI(),
		Min:    s.Min(),
		Max:    s.Max(),
	}
}

// tTable95 holds two-sided 95% critical values of Student's t distribution
// for small degrees of freedom; beyond the table we use the normal 1.96.
var tTable95 = [...]float64{
	// df: 1 .. 30
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 returns the two-sided 95% t critical value for the given
// degrees of freedom.
func tCritical95(df int) float64 {
	switch {
	case df <= 0:
		return math.NaN()
	case df <= len(tTable95):
		return tTable95[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

// WelchResult reports a two-sample Welch's t-test.
type WelchResult struct {
	// T is the t-statistic for the difference of means.
	T float64
	// DF is the Welch-Satterthwaite degrees of freedom (rounded down).
	DF int
	// Critical is the two-sided 95% t critical value at DF.
	Critical float64
	// Significant reports |T| > Critical: the means differ at the 95%
	// level.
	Significant bool
}

// WelchT compares the means of two independent samples with unequal
// variances (Welch's t-test) at the 95% level. Protocol-comparison
// experiments use it to state whether an observed gap (e.g. ALERT's hops
// versus GPSR's) is statistically meaningful across seeds.
func WelchT(a, b *Sample) WelchResult {
	na, nb := float64(a.N()), float64(b.N())
	if na < 2 || nb < 2 {
		return WelchResult{T: math.NaN()}
	}
	va, vb := a.Var()/na, b.Var()/nb
	se := math.Sqrt(va + vb)
	if se == 0 { //lint:allowfloatcompare exact zero detects the degenerate identical-constants case; any real variance gives se > 0
		// Identical constants: no evidence of a difference unless the
		// means actually differ (then the difference is exact).
		if a.Mean() == b.Mean() { //lint:allowfloatcompare with zero variance every sample equals the mean, so equality here is exact, not approximate
			return WelchResult{T: 0, DF: int(na + nb - 2), Critical: tCritical95(int(na + nb - 2))}
		}
		return WelchResult{T: math.Inf(1), DF: int(na + nb - 2),
			Critical: tCritical95(int(na + nb - 2)), Significant: true}
	}
	t := (a.Mean() - b.Mean()) / se
	// Welch-Satterthwaite degrees of freedom.
	df := (va + vb) * (va + vb) / (va*va/(na-1) + vb*vb/(nb-1))
	idf := int(math.Floor(df))
	if idf < 1 {
		idf = 1
	}
	crit := tCritical95(idf)
	return WelchResult{T: t, DF: idf, Critical: crit,
		Significant: math.Abs(t) > crit}
}
