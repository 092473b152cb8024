package geo

import (
	"math"
	"testing"

	"alertmanet/internal/rng"
)

// argminDist is the loop Nearest must reproduce: keep a candidate when its
// Dist to the target is strictly below the best so far, starting from the
// incumbent. It returns the chosen index (-1: none beat the incumbent) and
// the final best distance.
func argminDist(target, incumbent Point, cands []Point) (int, float64) {
	best, bd := -1, incumbent.Dist(target)
	for i, c := range cands {
		if d := c.Dist(target); d < bd {
			best, bd = i, d
		}
	}
	return best, bd
}

// checkSure requires band's pre-test, where it decides the pair (p, q),
// to give Within's answer, and Bounds with Sift to sort the pair as Sure
// does: kept unless surely beyond, in when surely within. It reports
// whether Sure decided.
func checkSure(t *testing.T, band Band, p, q Point) bool {
	t.Helper()
	d2 := p.Dist2(q)
	in, sure := band.Sure(d2)
	if sure && in != band.Within(p, q) {
		t.Fatalf("%+v %v %v: Sure decided %v, Within %v", band, p, q, in, band.Within(p, q))
	}
	in2, out2 := band.Bounds()
	keep, sifted := Sift(d2, in2, out2)
	if in != (d2 < in2) || sure != (d2 < in2 || d2 > out2) || keep != b2i(in || !sure) || sifted != b2i(in) {
		t.Fatalf("%+v %v %v: Sure says in %v sure %v; Bounds %v and %v, Sift keeps %d, in %d",
			band, p, q, in, sure, in2, out2, keep, sifted)
	}
	return sure
}

// checkNearest offers cands in order and requires Nearest's choice and
// final distance to be argminDist's, bit for bit (NaN matching NaN), and
// Offer to refuse every candidate that Farther rejected before it. It
// reports whether comparing Dist2 alone, with no band, would have chosen
// differently, and how many candidates Farther rejected.
func checkNearest(t *testing.T, target, incumbent Point, cands []Point) (discord bool, rejected int) {
	t.Helper()
	n := NewNearest(target, incumbent)
	got := -1
	for i, c := range cands {
		farther := n.Farther(c.Dist2(target))
		if farther {
			rejected++
		}
		if n.Offer(c) {
			if farther {
				t.Fatalf("target %v incumbent %v: Farther rejected candidate %d %v, Offer took it", target, incumbent, i, c)
			}
			got = i
		}
	}
	want, wd := argminDist(target, incumbent, cands)
	if gd := n.Dist(); got != want || math.Float64bits(gd) != math.Float64bits(wd) {
		t.Fatalf("target %v incumbent %v candidates %v: Nearest chose %d at %v, Dist argmin %d at %v",
			target, incumbent, cands, got, gd, want, wd)
	}
	sq, sd2 := -1, incumbent.Dist2(target)
	for i, c := range cands {
		if d2 := c.Dist2(target); d2 < sd2 {
			sq, sd2 = i, d2
		}
	}
	return sq != want, rejected
}

// TestNearestMatchesDist holds Nearest to the Dist loop on the inputs where
// the squared comparison and the distance comparison can part: exact ties
// (the first candidate must win), candidates math.Nextafter steps from a
// tie, candidates on the target, and distances whose squares are
// subnormal, underflow to zero or overflow. The near-ties must include
// cases where Dist2 alone orders the candidates differently, or the test
// would pass without the band, and Farther must reject some candidates, or
// its check against Offer would check nothing.
func TestNearestMatchesDist(t *testing.T) {
	src := rng.New(11)
	discord, rejected := 0, 0
	for _, scale := range []float64{250, 1, 3e-160, 1e-300, 5e-320, 1e150, 1e300} {
		for i := 0; i < 3000; i++ {
			target := Point{src.Uniform(-2, 2) * scale, src.Uniform(-2, 2) * scale}
			r := src.Uniform(0.1, 1) * scale
			theta := src.Uniform(0, 2*math.Pi)
			on := Point{target.X + r*math.Cos(theta), target.Y + r*math.Sin(theta)}
			// Mirror images through the target are exact ties.
			mirror := Point{2*target.X - on.X, 2*target.Y - on.Y}
			cands := []Point{on, mirror, on}
			nudged := on
			for step := 0; step < 4; step++ {
				if step%2 == 0 {
					nudged.X = math.Nextafter(nudged.X, math.Inf(1))
				} else {
					nudged.Y = math.Nextafter(nudged.Y, math.Inf(-1))
				}
				cands = append(cands, nudged)
			}
			for _, incumbent := range []Point{on, mirror, nudged, target, {on.X * 2, on.Y * 2}} {
				for k := range cands {
					rot := append(append([]Point{}, cands[k:]...), cands[:k]...)
					d, r := checkNearest(t, target, incumbent, rot)
					if d {
						discord++
					}
					rejected += r
				}
			}
		}
	}
	if discord == 0 {
		t.Fatal("no near-tie where Dist2 alone chooses differently: the band is untested")
	}
	if rejected == 0 {
		t.Fatal("Farther rejected no candidate: the pre-test is untested")
	}

	// Candidates on the target, and an incumbent on it.
	o := Point{123.25, 987.5}
	checkNearest(t, o, Point{200, 900}, []Point{{200, 901}, o, o, {123.25, 987.5}})
	checkNearest(t, o, o, []Point{o, {123.25, math.Nextafter(987.5, 0)}})

	// Non-finite coordinates on either side.
	nan, inf := math.NaN(), math.Inf(1)
	odd := []Point{{nan, 0}, {0, nan}, {inf, 0}, {-inf, inf}, {inf, nan}, {1e200, 1e200}, {-1e200, 1e-200}, {}}
	for _, target := range odd {
		for _, incumbent := range odd {
			checkNearest(t, target, incumbent, odd)
		}
	}
	t.Logf("%d candidate orders where Dist2 alone chooses differently", discord)
}

// TestBandHoisted: a band built once answers every pair exactly as Within
// and Dist do, for the radio radii and the degenerate ones.
func TestBandHoisted(t *testing.T) {
	src := rng.New(12)
	for _, r := range []float64{250, 225, 0, -1, 1e-160, 1.5e154, math.Inf(1), math.NaN()} {
		b := BandOf(r)
		for i := 0; i < 2000; i++ {
			p := Point{src.Uniform(0, 500), src.Uniform(0, 500)}
			q := Point{src.Uniform(0, 500), src.Uniform(0, 500)}
			if i%2 == 0 && r > 0 && r < 1e3 {
				theta := src.Uniform(0, 2*math.Pi)
				q = Point{p.X + r*math.Cos(theta), math.Nextafter(p.Y+r*math.Sin(theta), math.Inf(i%4-1))}
			}
			if got, want := b.Within(p, q), p.Dist(q) <= r; got != want || got != p.Within(q, r) {
				t.Fatalf("r=%v %v %v: band %v, Dist %v, Within %v", r, p, q, got, want, p.Within(q, r))
			}
			checkSure(t, b, p, q)
		}
	}
}

// FuzzNearest drives Nearest and Band with arbitrary coordinates: a target,
// an incumbent and two candidates, plus copies of the second candidate
// nudged one math.Nextafter step per axis, so near-ties are the common
// case. The choice must be the Dist loop's, Offer must refuse what Farther
// rejects, and the band and its pre-test Sure must agree with Within and
// Dist for a radius taken from the first candidate's distance.
func FuzzNearest(f *testing.F) {
	f.Add(500.0, 500.0, 700.0, 500.0, 600.0, 400.0, 400.0, 600.0)
	f.Add(0.0, 0.0, 1e-160, 0.0, 5e-324, 0.0, 0.0, 5e-324)
	f.Add(1e300, -1e300, 0.0, 0.0, -1e300, 1e300, 1e154, 1e154)
	f.Add(123.25, 987.5, 123.25, 987.5, 373.25, 987.5, 123.25, 737.5)
	f.Fuzz(func(t *testing.T, tx, ty, ix, iy, ax, ay, bx, by float64) {
		target, incumbent := Point{tx, ty}, Point{ix, iy}
		a, b := Point{ax, ay}, Point{bx, by}
		up := Point{math.Nextafter(bx, math.Inf(1)), by}
		down := Point{bx, math.Nextafter(by, math.Inf(-1))}
		mirror := Point{2*tx - bx, 2*ty - by}
		checkNearest(t, target, incumbent, []Point{a, b, up, down, mirror, b})
		checkNearest(t, target, b, []Point{up, down, mirror, a})
		r := a.Dist(target)
		for _, rr := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1))} {
			band := BandOf(rr)
			for _, q := range []Point{a, b, up, down, mirror} {
				if got, want := band.Within(target, q), target.Dist(q) <= rr; got != want || got != target.Within(q, rr) {
					t.Fatalf("r=%v %v %v: band %v, Dist %v", rr, target, q, got, want)
				}
				checkSure(t, band, target, q)
			}
		}
	})
}
