// Package analysis implements the closed-form results of Section 4 of the
// paper — Equations (1) through (15) — and the series generators behind its
// analytical figures: possible participating nodes (Fig. 7a), expected
// random forwarders (Fig. 7b), and destination-zone remaining nodes over
// time (Figs. 9a, 9b). The simulation figures (10-17) are checked against
// these curves, exactly as the paper checks experiment against analysis.
package analysis

import (
	"math"

	"alertmanet/internal/geo"
)

// SideLengths returns a(h, lA) and b(h, lB) — Equations (1)-(2): the side
// lengths of the h-th partitioned zone.
func SideLengths(h int, lA, lB float64) (a, b float64) {
	return geo.SideLengths(h, lA, lB)
}

// SeparationProb is Equation (5): the probability that exactly sigma
// partitions are needed to separate S from D, p_s(sigma) = 2^-sigma for
// 0 < sigma <= H (and 0 outside that range).
func SeparationProb(sigma, h int) float64 {
	if sigma <= 0 || sigma > h {
		return 0
	}
	return math.Pow(0.5, float64(sigma))
}

// PossibleParticipants is Equation (7): the expected number of nodes that
// could take part in one S-D routing, summed over closeness values,
//
//	N_e = sum_{sigma=1..H} a(sigma,lA) * b(sigma,lB) * rho * 2^-sigma,
//
// where rho = N / (lA*lB) is the node density. As H grows this saturates
// near N/3 — the paper's "about 1/4 of the total number of nodes" plateau
// in Fig. 7a (approximately 30 for 100 nodes and 60 for 200).
func PossibleParticipants(n, h int, lA, lB float64) float64 {
	if n <= 0 || h <= 0 {
		return 0
	}
	rho := float64(n) / (lA * lB)
	total := 0.0
	for sigma := 1; sigma <= h; sigma++ {
		a, b := SideLengths(sigma, lA, lB)
		total += a * b * rho * SeparationProb(sigma, h)
	}
	return total
}

// Binomial returns C(n, k).
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1.0
	for i := 0; i < k; i++ {
		res = res * float64(n-i) / float64(i+1)
	}
	return res
}

// RFCountProb is Equation (8): the probability that an S-D pair with
// closeness sigma sees exactly i random forwarders,
//
//	p_i(sigma, i) = C(H-sigma, i) * (1/2)^(H-sigma).
//
// Each remaining partition step independently produces an RF+ or RF- with
// probability 1/2, so the count is Binomial(H-sigma, 1/2).
func RFCountProb(sigma, i, h int) float64 {
	m := h - sigma
	if m < 0 || i < 0 || i > m {
		return 0
	}
	return Binomial(m, i) * math.Pow(0.5, float64(m))
}

// ExpectedRFsGivenCloseness is Equation (9): the expected number of RFs for
// closeness sigma; the binomial mean (H-sigma)/2, computed by the explicit
// sum for fidelity to the paper.
func ExpectedRFsGivenCloseness(sigma, h int) float64 {
	total := 0.0
	for i := 1; i <= h-sigma; i++ {
		total += RFCountProb(sigma, i, h) * float64(i)
	}
	return total
}

// ExpectedRFs is Equation (10): the expected number of random forwarders
// over all closeness values,
//
//	N_RF = sum_{sigma=1..H} sum_i C(H-sigma, i) (1/2)^(H-sigma) * i * 2^-sigma.
//
// The result grows linearly with H (Fig. 7b).
func ExpectedRFs(h int) float64 {
	total := 0.0
	for sigma := 1; sigma <= h; sigma++ {
		total += ExpectedRFsGivenCloseness(sigma, h) * SeparationProb(sigma, h)
	}
	return total
}

// Beta is Equation (14): the mean residence time constant for a square
// destination zone of side 2r' approximated by an equal-area circle,
// beta = sqrt(pi) * r' / v.
func Beta(halfSide, speed float64) float64 {
	if speed <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(math.Pi) * halfSide / speed
}

// RemainProb is Equation (11): the probability a node moving at the given
// speed is still inside the destination zone after time t, exp(-t/beta).
func RemainProb(t, halfSide, speed float64) float64 {
	b := Beta(halfSide, speed)
	if math.IsInf(b, 1) {
		return 1
	}
	return math.Exp(-t / b)
}

// RemainingNodes is Equation (15): the expected number of the original
// destination-zone nodes still inside after time t, for a square lA x lA
// field partitioned H times with density rho = n/(lA*lA):
//
//	N_r(t) = exp(-t*v / (sqrt(pi)*r')) * a(H,lA) * b(H,lA) * rho.
func RemainingNodes(t float64, n, h int, lA, speed float64) float64 {
	a, b := SideLengths(h, lA, lA)
	rho := float64(n) / (lA * lA)
	halfSide := math.Sqrt(a*b) / 2 // side 2r' of the (near-)square zone
	return RemainProb(t, halfSide, speed) * a * b * rho
}

// Series is a labeled sequence of (x, y) points, the unit all figure
// generators produce. Err, when non-nil, holds the 95% confidence
// half-width per point (the paper's "I"-shaped intervals).
type Series struct {
	Label string
	X, Y  []float64
	Err   []float64
}

// Fig7aPossibleParticipants generates the Fig. 7a curves: possible
// participating nodes versus the number of partitions, one series per node
// count, on a square field of side lA.
func Fig7aPossibleParticipants(nodeCounts []int, hMax int, lA float64) []Series {
	out := make([]Series, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		s := newSeries(label("N=", n), hMax)
		for h := 1; h <= hMax; h++ {
			s.X = append(s.X, float64(h))
			s.Y = append(s.Y, PossibleParticipants(n, h, lA, lA))
		}
		out = append(out, s)
	}
	return out
}

// Fig7bExpectedRFs generates the Fig. 7b curve: expected random forwarders
// versus the number of partitions.
func Fig7bExpectedRFs(hMax int) Series {
	s := newSeries("E[RFs]", hMax)
	for h := 1; h <= hMax; h++ {
		s.X = append(s.X, float64(h))
		s.Y = append(s.Y, ExpectedRFs(h))
	}
	return s
}

// Fig9aRemainingNodes generates the Fig. 9a curves: remaining nodes versus
// time at fixed speed, one series per node count.
func Fig9aRemainingNodes(nodeCounts []int, h int, lA, speed float64, times []float64) []Series {
	out := make([]Series, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		s := newSeries(label("N=", n), len(times))
		for _, t := range times {
			s.X = append(s.X, t)
			s.Y = append(s.Y, RemainingNodes(t, n, h, lA, speed))
		}
		out = append(out, s)
	}
	return out
}

// Fig9bRemainingNodes generates the Fig. 9b curves: remaining nodes versus
// time at fixed density, one series per speed.
func Fig9bRemainingNodes(n, h int, lA float64, speeds, times []float64) []Series {
	out := make([]Series, 0, len(speeds))
	for _, v := range speeds {
		s := newSeries(labelF("v=", v), len(times))
		for _, t := range times {
			s.X = append(s.X, t)
			s.Y = append(s.Y, RemainingNodes(t, n, h, lA, v))
		}
		out = append(out, s)
	}
	return out
}

// newSeries starts a series with X and Y pre-sized to the known point
// count, so the generators' append loops never trigger growth
// reallocations (the figure benchmarks gate allocs/op in CI).
func newSeries(label string, points int) Series {
	return Series{
		Label: label,
		X:     make([]float64, 0, points),
		Y:     make([]float64, 0, points),
	}
}

// label and labelF render their text through one shared stack buffer and
// a single string conversion, instead of the itoa-then-concatenate chain
// that cost two allocations per series.
func label(prefix string, v int) string {
	var buf [32]byte
	return string(appendInt(append(buf[:0], prefix...), v))
}

func labelF(prefix string, v float64) string {
	// Speeds in the paper are small integers or halves.
	var buf [32]byte
	whole := int(v)
	b := appendInt(append(buf[:0], prefix...), whole)
	if float64(whole) == v {
		return string(append(b, " m/s"...))
	}
	return string(append(b, ".5 m/s"...))
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var digits [20]byte
	p := len(digits)
	for v > 0 {
		p--
		digits[p] = byte('0' + v%10)
		v /= 10
	}
	return append(b, digits[p:]...)
}
