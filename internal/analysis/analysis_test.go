package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"alertmanet/internal/rng"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSeparationProb(t *testing.T) {
	if SeparationProb(1, 5) != 0.5 || SeparationProb(2, 5) != 0.25 {
		t.Fatal("p_s wrong")
	}
	if SeparationProb(0, 5) != 0 || SeparationProb(6, 5) != 0 || SeparationProb(-1, 5) != 0 {
		t.Fatal("out-of-range sigma should be 0")
	}
}

func TestSeparationProbMonteCarlo(t *testing.T) {
	// Verify Equation (5) against direct sampling: place S and D
	// uniformly, count the canonical partitions needed to separate them.
	src := rng.New(1)
	const H = 6
	counts := make([]int, H+1)
	const trials = 200000
	valid := 0
	for i := 0; i < trials; i++ {
		// Work on the unit square with alternating bisections. Sigma
		// is the first cut at which S and D land in different halves.
		sx, sy := src.Float64(), src.Float64()
		dx, dy := src.Float64(), src.Float64()
		lo := [2]float64{0, 0}
		hi := [2]float64{1, 1}
		sigma := 0
		for c := 1; c <= H; c++ {
			axis := (c - 1) % 2 // vertical first: split x
			mid := (lo[axis] + hi[axis]) / 2
			var sv, dv float64
			if axis == 0 {
				sv, dv = sx, dx
			} else {
				sv, dv = sy, dy
			}
			sHi := sv >= mid
			dHi := dv >= mid
			if sHi != dHi {
				sigma = c
				break
			}
			if sHi {
				lo[axis] = mid
			} else {
				hi[axis] = mid
			}
		}
		if sigma > 0 {
			counts[sigma]++
			valid++
		}
	}
	for sigma := 1; sigma <= 4; sigma++ {
		got := float64(counts[sigma]) / trials
		want := SeparationProb(sigma, H)
		if !close(got, want, 0.01) {
			t.Fatalf("sigma=%d: simulated %v, formula %v", sigma, got, want)
		}
	}
	_ = valid
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {6, 3, 20},
		{10, 4, 210}, {5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Fatalf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestRFCountProbSumsToOne(t *testing.T) {
	for h := 1; h <= 8; h++ {
		for sigma := 1; sigma <= h; sigma++ {
			total := 0.0
			for i := 0; i <= h-sigma; i++ {
				total += RFCountProb(sigma, i, h)
			}
			if !close(total, 1, 1e-12) {
				t.Fatalf("p_i(%d, ·) sums to %v for H=%d", sigma, total, h)
			}
		}
	}
}

func TestExpectedRFsGivenClosenessIsBinomialMean(t *testing.T) {
	// The paper's explicit sum equals the binomial mean (H-sigma)/2.
	for h := 1; h <= 10; h++ {
		for sigma := 1; sigma <= h; sigma++ {
			want := float64(h-sigma) / 2
			if got := ExpectedRFsGivenCloseness(sigma, h); !close(got, want, 1e-9) {
				t.Fatalf("E[RF|sigma=%d,H=%d] = %v, want %v", sigma, h, got, want)
			}
		}
	}
}

func TestExpectedRFsLinearInH(t *testing.T) {
	// Fig. 7b: near-linear growth. Check that successive differences
	// stabilize.
	var diffs []float64
	prev := ExpectedRFs(1)
	for h := 2; h <= 10; h++ {
		cur := ExpectedRFs(h)
		if cur <= prev {
			t.Fatalf("E[RFs] not increasing at H=%d", h)
		}
		diffs = append(diffs, cur-prev)
		prev = cur
	}
	// Tail differences should approach a constant slope (~0.5).
	last := diffs[len(diffs)-1]
	if !close(last, 0.5, 0.05) {
		t.Fatalf("asymptotic slope %v, want ~0.5", last)
	}
}

func TestPossibleParticipantsPlateau(t *testing.T) {
	// Equation (7): saturates near N/3 as H grows; the paper reports
	// "approximately 30 and 60" for 100 and 200 nodes.
	p100 := PossibleParticipants(100, 10, 1000, 1000)
	p200 := PossibleParticipants(200, 10, 1000, 1000)
	if !close(p100, 100.0/3, 1) {
		t.Fatalf("N=100 plateau %v, want ~33", p100)
	}
	if !close(p200, 200.0/3, 2) {
		t.Fatalf("N=200 plateau %v, want ~66", p200)
	}
	// Fast initial growth: H=2 already captures most of the plateau.
	if PossibleParticipants(200, 2, 1000, 1000) < 0.8*p200 {
		t.Fatal("growth profile wrong: H=2 should be near the plateau")
	}
	if PossibleParticipants(0, 5, 1000, 1000) != 0 ||
		PossibleParticipants(100, 0, 1000, 1000) != 0 {
		t.Fatal("degenerate inputs should be 0")
	}
}

func TestPossibleParticipantsScalesWithN(t *testing.T) {
	// Doubling N doubles the expectation (density linearity).
	a := PossibleParticipants(100, 5, 1000, 1000)
	b := PossibleParticipants(200, 5, 1000, 1000)
	if !close(b, 2*a, 1e-9) {
		t.Fatalf("not linear in N: %v vs %v", a, b)
	}
}

func TestBetaAndRemainProb(t *testing.T) {
	// beta = sqrt(pi) r'/v.
	if !close(Beta(100, 2), math.Sqrt(math.Pi)*50, 1e-9) {
		t.Fatalf("beta = %v", Beta(100, 2))
	}
	if !math.IsInf(Beta(100, 0), 1) {
		t.Fatal("zero speed should give infinite beta")
	}
	if RemainProb(10, 100, 0) != 1 {
		t.Fatal("static nodes always remain")
	}
	if p := RemainProb(0, 100, 2); !close(p, 1, 1e-12) {
		t.Fatalf("t=0 should remain with prob 1, got %v", p)
	}
	// Monotone decreasing in t.
	if RemainProb(20, 100, 2) >= RemainProb(10, 100, 2) {
		t.Fatal("remain prob not decreasing in time")
	}
	// Faster nodes leave sooner.
	if RemainProb(10, 100, 4) >= RemainProb(10, 100, 2) {
		t.Fatal("remain prob not decreasing in speed")
	}
}

func TestRemainingNodesAtTZero(t *testing.T) {
	// At t=0 the zone holds a*b*rho nodes: for H=5, N=200, 1000 m field,
	// that's 200/32 = 6.25 — k-anonymity around the paper's k.
	got := RemainingNodes(0, 200, 5, 1000, 2)
	if !close(got, 6.25, 1e-9) {
		t.Fatalf("N_r(0) = %v, want 6.25", got)
	}
}

func TestRemainingNodesShapes(t *testing.T) {
	// Fig. 9a: higher density -> more remaining at any time.
	if RemainingNodes(10, 400, 5, 1000, 2) <= RemainingNodes(10, 200, 5, 1000, 2) {
		t.Fatal("density ordering violated")
	}
	// Fig. 9b: higher speed -> fewer remaining.
	if RemainingNodes(10, 200, 5, 1000, 4) >= RemainingNodes(10, 200, 5, 1000, 2) {
		t.Fatal("speed ordering violated")
	}
	// Fig. 13a: fewer partitions (bigger zone) -> more remaining.
	if RemainingNodes(10, 200, 4, 1000, 2) <= RemainingNodes(10, 200, 5, 1000, 2) {
		t.Fatal("partition ordering violated")
	}
}

func TestFig7aSeries(t *testing.T) {
	series := Fig7aPossibleParticipants([]int{100, 200, 400}, 7, 1000)
	if len(series) != 3 {
		t.Fatal("series count wrong")
	}
	for _, s := range series {
		if len(s.X) != 7 || len(s.Y) != 7 {
			t.Fatalf("series %s has wrong length", s.Label)
		}
		// Monotone nondecreasing in H.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-9 {
				t.Fatalf("series %s not monotone", s.Label)
			}
		}
	}
	if series[0].Label != "N=100" {
		t.Fatalf("label = %q", series[0].Label)
	}
}

func TestFig7bSeries(t *testing.T) {
	s := Fig7bExpectedRFs(7)
	if len(s.Y) != 7 {
		t.Fatal("length wrong")
	}
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] <= s.Y[i-1] {
			t.Fatal("expected RFs must increase with H")
		}
	}
}

func TestFig9Series(t *testing.T) {
	times := []float64{0, 5, 10, 15, 20}
	a := Fig9aRemainingNodes([]int{100, 200, 400}, 5, 1000, 2, times)
	if len(a) != 3 || len(a[0].Y) != 5 {
		t.Fatal("fig9a shape wrong")
	}
	b := Fig9bRemainingNodes(200, 5, 1000, []float64{1, 2, 4}, times)
	if len(b) != 3 {
		t.Fatal("fig9b shape wrong")
	}
	if b[0].Label != "v=1 m/s" {
		t.Fatalf("label = %q", b[0].Label)
	}
	// Every curve decays over time for moving nodes.
	for _, s := range b {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1] {
				t.Fatalf("series %s not decaying", s.Label)
			}
		}
	}
}

// Property: RFCountProb is a valid pmf and its mean matches (H-sigma)/2 for
// arbitrary small H, sigma.
func TestQuickRFPmf(t *testing.T) {
	f := func(hRaw, sRaw uint8) bool {
		h := int(hRaw%10) + 1
		sigma := int(sRaw)%h + 1
		sum, mean := 0.0, 0.0
		for i := 0; i <= h-sigma; i++ {
			p := RFCountProb(sigma, i, h)
			if p < 0 || p > 1 {
				return false
			}
			sum += p
			mean += p * float64(i)
		}
		return close(sum, 1, 1e-9) && close(mean, float64(h-sigma)/2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: remaining nodes never negative and never exceed the zone's
// initial population.
func TestQuickRemainingBounds(t *testing.T) {
	f := func(tRaw, vRaw uint8, hRaw uint8) bool {
		tm := float64(tRaw)
		v := float64(vRaw % 10)
		h := int(hRaw%8) + 1
		r := RemainingNodes(tm, 200, h, 1000, v)
		initial := RemainingNodes(0, 200, h, 1000, v)
		return r >= 0 && r <= initial+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
