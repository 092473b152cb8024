package geo

import (
	"math"
	"testing"
	"testing/quick"

	"alertmanet/internal/rng"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if !almostEqual(p.Dist(q), 5) {
		t.Fatalf("Dist = %v, want 5", p.Dist(q))
	}
	if !almostEqual(p.Dist2(q), 25) {
		t.Fatalf("Dist2 = %v, want 25", p.Dist2(q))
	}
}

// TestWithinMatchesDist holds Within to its contract, bit for bit:
// p.Within(q, r) == (p.Dist(q) <= r) for every input, the boundary
// included. The radii are the paper's 250 m range and GPSR's safe greedy
// range (SafeRangeFactor 0.9 of it, computed the way gpsr.Step does).
// Wherever the band's pre-test Sure decides a pair, its answer must be
// Within's; the nudged pairs on the two radio circles must include pairs
// it leaves undecided, or the test would pass without the band.
func TestWithinMatchesDist(t *testing.T) {
	rangeM, safeFactor := 250.0, 0.9
	radii := []float64{rangeM, rangeM * safeFactor}
	undecided := map[float64]int{}
	check := func(p, q Point, r float64) {
		t.Helper()
		if got, want := p.Within(q, r), p.Dist(q) <= r; got != want {
			t.Fatalf("%v.Within(%v, %v) = %v, Dist = %v (<= r is %v)",
				p, q, r, got, p.Dist(q), want)
		}
		if !checkSure(t, BandOf(r), p, q) {
			undecided[r]++
		}
	}
	defer func() {
		for _, r := range radii {
			if undecided[r] == 0 {
				t.Errorf("r=%v: Sure decided every pair, the band is untested", r)
			}
		}
	}()

	src := rng.New(7)
	for i := 0; i < 20000; i++ {
		p := Point{src.Uniform(0, 1000), src.Uniform(0, 1000)}
		q := Point{src.Uniform(0, 1000), src.Uniform(0, 1000)}
		check(p, q, radii[i%2])
		check(p, q, src.Uniform(0, 1500))
	}

	// Pairs placed on the circle of radius r around p, then nudged a few
	// representable values inward and outward along each axis: the only
	// region where Dist2 against r*r could disagree with Dist against r.
	// Besides the two radio radii, circles whose r*r is subnormal or
	// overflows, where the squared comparison cannot be trusted at all.
	circles := append([]float64{2e-162, 1e-160, 1.3407807929942597e154, 1.5e154}, radii...)
	for _, r := range circles {
		for i := 0; i < 2000; i++ {
			p := Point{src.Uniform(0, 4*r), src.Uniform(0, 4*r)}
			theta := src.Uniform(0, 2*math.Pi)
			q := Point{p.X + r*math.Cos(theta), p.Y + r*math.Sin(theta)}
			for _, axis := range []int{0, 1} {
				for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
					nudged := q
					for step := 0; step < 8; step++ {
						check(p, nudged, r)
						if axis == 0 {
							nudged.X = math.Nextafter(nudged.X, dir)
						} else {
							nudged.Y = math.Nextafter(nudged.Y, dir)
						}
					}
				}
			}
		}
	}
	for _, r := range radii {
		// Axis-aligned pairs at exactly r and a few steps either side.
		for _, o := range []Point{{}, {X: 123.25, Y: 987.5}} {
			for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
				x := o.X + r
				for step := 0; step < 8; step++ {
					check(o, Point{x, o.Y}, r)
					check(o, Point{o.X, o.Y + (x - o.X)}, r)
					x = math.Nextafter(x, dir)
				}
			}
		}
	}

	// Degenerate radii: zero (coincident and distinct points), negative,
	// infinite and NaN.
	p := Point{10, 20}
	for _, q := range []Point{p, {10, 20.5}, {math.Nextafter(10, 11), 20}} {
		check(p, q, 0)
		check(p, q, -1)
		check(p, q, -rangeM)
		check(p, q, math.Inf(1))
		check(p, q, math.NaN())
	}

	// Non-finite coordinates.
	nan, inf := math.NaN(), math.Inf(1)
	odd := []Point{
		{nan, 0}, {0, nan}, {nan, nan},
		{inf, 0}, {-inf, 0}, {0, inf}, {0, -inf},
		{inf, inf}, {inf, -inf}, {inf, nan}, {nan, -inf},
		{1e200, 0}, {1e200, 1e200}, {-1e200, 1e-200},
	}
	for _, a := range odd {
		for _, b := range append([]Point{{}, {250, 0}}, odd...) {
			for _, r := range []float64{0, rangeM, -rangeM, inf, 1e201} {
				check(a, b, r)
				check(b, a, r)
			}
		}
	}
}

func TestPointLerp(t *testing.T) {
	p := Point{0, 0}
	q := Point{10, 20}
	m := p.Lerp(q, 0.5)
	if !almostEqual(m.X, 5) || !almostEqual(m.Y, 10) {
		t.Fatalf("Lerp midpoint = %v", m)
	}
	if p.Lerp(q, 0) != p || p.Lerp(q, 1) != q {
		t.Fatal("Lerp endpoints wrong")
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Point{0, 0}, Point{4, 2}}
	if !almostEqual(r.Width(), 4) || !almostEqual(r.Height(), 2) || !almostEqual(r.Area(), 8) {
		t.Fatal("width/height/area wrong")
	}
	if r.Center() != (Point{2, 1}) {
		t.Fatalf("Center = %v", r.Center())
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{4, 2}) || r.Contains(Point{4.01, 1}) {
		t.Fatal("Contains wrong at boundaries")
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported Empty")
	}
	if !(Rect{Point{1, 1}, Point{1, 3}}).Empty() {
		t.Fatal("zero-width rect not Empty")
	}
}

func TestRectClamp(t *testing.T) {
	r := Rect{Point{0, 0}, Point{10, 10}}
	if r.Clamp(Point{-5, 3}) != (Point{0, 3}) {
		t.Fatal("Clamp left failed")
	}
	if r.Clamp(Point{11, 12}) != (Point{10, 10}) {
		t.Fatal("Clamp corner failed")
	}
	in := Point{4, 5}
	if r.Clamp(in) != in {
		t.Fatal("Clamp moved interior point")
	}
}

func TestBisect(t *testing.T) {
	r := Rect{Point{0, 0}, Point{4, 2}}
	l, rr := r.Bisect(Vertical)
	if l != (Rect{Point{0, 0}, Point{2, 2}}) || rr != (Rect{Point{2, 0}, Point{4, 2}}) {
		t.Fatalf("vertical bisect: %v %v", l, rr)
	}
	b, tp := r.Bisect(Horizontal)
	if b != (Rect{Point{0, 0}, Point{4, 1}}) || tp != (Rect{Point{0, 1}, Point{4, 2}}) {
		t.Fatalf("horizontal bisect: %v %v", b, tp)
	}
}

func TestSideAssignsCutLineToHi(t *testing.T) {
	r := Rect{Point{0, 0}, Point{4, 4}}
	onCut := Point{2, 1}
	got := r.Side(Vertical, onCut)
	if got.Min.X != 2 {
		t.Fatalf("point on cut assigned to %v, want hi half", got)
	}
	if r.SideIndex(Vertical, onCut) != 1 {
		t.Fatal("SideIndex on cut should be 1")
	}
	if r.SideIndex(Vertical, Point{1.999, 1}) != 0 {
		t.Fatal("SideIndex left of cut should be 0")
	}
}

func TestDirectionFlip(t *testing.T) {
	if Vertical.Flip() != Horizontal || Horizontal.Flip() != Vertical {
		t.Fatal("Flip broken")
	}
	if Vertical.String() != "vertical" || Horizontal.String() != "horizontal" {
		t.Fatal("String broken")
	}
}

// TestPaperSection24Example reproduces the worked example from Section 2.4:
// field (0,0)-(4,2) (G=8), H=3, destination at (0.5, 0.8) => destination
// zone (0,0)-(1,1) with area 1.
func TestPaperSection24Example(t *testing.T) {
	field := Rect{Point{0, 0}, Point{4, 2}}
	zd := DestZone(field, Point{0.5, 0.8}, 3, Vertical)
	want := Rect{Point{0, 0}, Point{1, 1}}
	if zd != want {
		t.Fatalf("DestZone = %v, want %v", zd, want)
	}
	if !almostEqual(zd.Area(), 8.0/math.Pow(2, 3)) {
		t.Fatalf("Z_D area = %v, want G/2^H = 1", zd.Area())
	}
}

func TestSideLengthsEquations(t *testing.T) {
	// After 3 partitions of an lA x lB field starting vertical:
	// two vertical cuts (1st, 3rd) quarter the X side, one horizontal cut
	// halves the Y side.
	a, b := SideLengths(3, 8, 4)
	if !almostEqual(a, 2) || !almostEqual(b, 2) {
		t.Fatalf("SideLengths(3) = %v, %v; want 2, 2", a, b)
	}
	a, b = SideLengths(0, 8, 4)
	if !almostEqual(a, 8) || !almostEqual(b, 4) {
		t.Fatal("SideLengths(0) should be the field")
	}
	a, b = SideLengths(-2, 8, 4)
	if !almostEqual(a, 8) || !almostEqual(b, 4) {
		t.Fatal("negative h should clamp to 0")
	}
}

func TestSideLengthsMatchDestZone(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 1000}}
	src := rng.New(1)
	for h := 0; h <= 8; h++ {
		d := RandomPoint(field, src)
		zd := DestZone(field, d, h, Vertical)
		a, b := SideLengths(h, field.Width(), field.Height())
		if !almostEqual(zd.Width(), a) || !almostEqual(zd.Height(), b) {
			t.Fatalf("h=%d: zone %vx%v, equations say %vx%v",
				h, zd.Width(), zd.Height(), a, b)
		}
	}
}

func TestPartitionsForK(t *testing.T) {
	// H = log2(N/k): 200 nodes, k=6 -> log2(33.3) = 5.06 -> 5 (paper's
	// default H=5 "to ensure a reasonable number of nodes in Z_D").
	if h := PartitionsForK(200, 6); h != 5 {
		t.Fatalf("PartitionsForK(200,6) = %d, want 5", h)
	}
	if h := PartitionsForK(256, 8); h != 5 {
		t.Fatalf("PartitionsForK(256,8) = %d, want 5", h)
	}
	if h := PartitionsForK(100, 100); h != 0 {
		t.Fatal("k >= N should give 0")
	}
	if h := PartitionsForK(0, 5); h != 0 {
		t.Fatal("no nodes should give 0")
	}
	if h := PartitionsForK(100, 0); h != 0 {
		t.Fatal("k=0 should give 0")
	}
}

func TestDestZoneContainsDestination(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 1000}}
	src := rng.New(2)
	for i := 0; i < 500; i++ {
		d := RandomPoint(field, src)
		for h := 0; h <= 7; h++ {
			zd := DestZone(field, d, h, Vertical)
			if !zd.Contains(d) {
				t.Fatalf("Z_D %v does not contain D %v (h=%d)", zd, d, h)
			}
		}
	}
}

func TestZonePathNesting(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 500}}
	src := rng.New(3)
	for i := 0; i < 200; i++ {
		d := RandomPoint(field, src)
		path := ZonePath(field, d, 6, Vertical)
		if len(path) != 7 {
			t.Fatalf("path length %d", len(path))
		}
		for j := 1; j < len(path); j++ {
			if !path[j-1].ContainsRect(path[j]) {
				t.Fatalf("zone %d not nested in zone %d", j, j-1)
			}
			if !almostEqual(path[j].Area()*2, path[j-1].Area()) {
				t.Fatalf("zone %d is not half the area of zone %d", j, j-1)
			}
		}
		if path[6] != DestZone(field, d, 6, Vertical) {
			t.Fatal("ZonePath tail disagrees with DestZone")
		}
	}
}

func TestRandomPointInside(t *testing.T) {
	r := Rect{Point{100, 200}, Point{300, 250}}
	src := rng.New(4)
	for i := 0; i < 1000; i++ {
		p := RandomPoint(r, src)
		if !r.Contains(p) {
			t.Fatalf("RandomPoint %v outside %v", p, r)
		}
	}
}

func TestSeparateBasic(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 1000}}
	self := Point{900, 900}
	d := Point{100, 100}
	zd := DestZone(field, d, 5, Vertical)
	res := SeparateWithPolicy(field, self, zd, Vertical, 5, true)
	if !res.Separated {
		t.Fatal("far-apart S and Z_D should separate in one cut")
	}
	if res.Cuts != 1 {
		t.Fatalf("Cuts = %d, want 1", res.Cuts)
	}
	if !res.SelfZone.Contains(self) {
		t.Fatal("SelfZone must contain the forwarder")
	}
	if !res.OtherZone.ContainsRect(zd) {
		t.Fatal("OtherZone must contain Z_D")
	}
	if res.NextDir != Horizontal {
		t.Fatal("direction must flip after one vertical cut")
	}
}

func TestSeparateNeedsMultipleCuts(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 1000}}
	// Self and destination in the same left half, different bottom/top.
	self := Point{100, 900}
	d := Point{100, 100}
	zd := DestZone(field, d, 5, Vertical)
	res := SeparateWithPolicy(field, self, zd, Vertical, 5, true)
	if !res.Separated {
		t.Fatal("should separate")
	}
	if res.Cuts != 2 {
		t.Fatalf("Cuts = %d, want 2 (1 vertical shared + 1 horizontal split)", res.Cuts)
	}
}

func TestSeparateRespectsMaxCuts(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 1000}}
	self := Point{100.1, 100.1}
	d := Point{100, 100}
	zd := DestZone(field, d, 10, Vertical)
	res := SeparateWithPolicy(field, self, zd, Vertical, 3, true)
	if res.Cuts > 3 {
		t.Fatalf("Cuts = %d exceeds maxCuts", res.Cuts)
	}
}

func TestSeparateStopsAtZD(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 1000}}
	d := Point{10, 10}
	zd := DestZone(field, d, 4, Vertical)
	// Forwarder already inside Z_D.
	self := Point{12, 12}
	if !zd.Contains(self) {
		t.Fatal("test setup: self should be in Z_D")
	}
	res := SeparateWithPolicy(zd, self, zd, Vertical, 10, true)
	if res.Separated {
		t.Fatal("must not separate once the zone is Z_D")
	}
	if res.Cuts != 0 {
		t.Fatalf("Cuts = %d, want 0", res.Cuts)
	}
}

// Property: whenever SeparateWithPolicy reports separation, the two half zones
// partition the bisected zone, self is in SelfZone, and Z_D's center is in
// OtherZone.
func TestQuickSeparateInvariants(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1024, 1024}}
	src := rng.New(5)
	f := func(sx, sy, dx, dy uint16, hRaw uint8, vertFirst bool) bool {
		self := Point{math.Mod(float64(sx), 1024), math.Mod(float64(sy), 1024)}
		d := Point{math.Mod(float64(dx), 1024), math.Mod(float64(dy), 1024)}
		h := int(hRaw%7) + 1
		first := Vertical
		if !vertFirst {
			first = Horizontal
		}
		zd := DestZone(field, d, h, Vertical)
		res := SeparateWithPolicy(field, self, zd, first, h, true)
		if !res.Separated {
			return true
		}
		if !res.SelfZone.Contains(self) {
			return false
		}
		if !res.OtherZone.Contains(zd.Center()) {
			return false
		}
		// The two halves together tile their parent: equal areas,
		// disjoint interiors.
		if !almostEqual(res.SelfZone.Area(), res.OtherZone.Area()) {
			return false
		}
		// TD drawn from OtherZone lies in the field.
		td := RandomPoint(res.OtherZone, src)
		return field.Contains(td)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: DestZone area is exactly G / 2^H.
func TestQuickDestZoneArea(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 1000}}
	f := func(dx, dy uint16, hRaw uint8) bool {
		d := Point{math.Mod(float64(dx), 1000), math.Mod(float64(dy), 1000)}
		h := int(hRaw % 10)
		zd := DestZone(field, d, h, Vertical)
		return almostEqual(zd.Area(), field.Area()/math.Pow(2, float64(h)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated SeparateWithPolicy steps from random forwarder positions always
// make progress toward Z_D: the other zone (which contains Z_D) has at most
// half the area of the zone it came from.
func TestQuickSeparateShrinks(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 1000}}
	f := func(sx, sy, dx, dy uint16) bool {
		self := Point{math.Mod(float64(sx), 1000), math.Mod(float64(sy), 1000)}
		d := Point{math.Mod(float64(dx), 1000), math.Mod(float64(dy), 1000)}
		zd := DestZone(field, d, 5, Vertical)
		res := SeparateWithPolicy(field, self, zd, Vertical, 5, true)
		if !res.Separated {
			return true
		}
		return res.OtherZone.Area() <= field.Area()/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeparateWithPolicyFixedAxis(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 1000}}
	// Self sits exactly above the destination zone's center: a fixed
	// vertical axis can never separate them, so the budget runs out.
	d := Point{100, 100}
	zd := DestZone(field, d, 5, Vertical)
	self := Point{zd.Center().X, 900}
	res := SeparateWithPolicy(field, self, zd, Vertical, 5, false)
	if res.Separated {
		t.Fatal("vertical-only cuts cannot separate a vertical offset")
	}
	if res.NextDir != Vertical {
		t.Fatal("fixed policy must not flip the direction")
	}
	// Horizontal-only cuts separate them on the first cut.
	res = SeparateWithPolicy(field, self, zd, Horizontal, 5, false)
	if !res.Separated || res.Cuts != 1 {
		t.Fatalf("horizontal fixed cut should separate immediately: %+v", res)
	}
	if res.NextDir != Horizontal {
		t.Fatal("fixed policy flipped the direction")
	}
}

// TestSeparateReconstructsCanonicalHierarchy: walking SeparateWithPolicy
// (alternating) from the whole field with the canonical phase (vertical
// first) visits exactly the zones of ZonePath — the routing partition and
// the destination-zone construction agree.
func TestSeparateReconstructsCanonicalHierarchy(t *testing.T) {
	field := Rect{Point{0, 0}, Point{1000, 1000}}
	src := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		d := RandomPoint(field, src)
		self := RandomPoint(field, src)
		const h = 5
		zd := DestZone(field, d, h, Vertical)
		path := ZonePath(field, d, h, Vertical)
		res := SeparateWithPolicy(field, self, zd, Vertical, h, true)
		if !res.Separated {
			// Self effectively shares Z_D's hierarchy down to the
			// budget; nothing to check.
			continue
		}
		// The half holding Z_D after `Cuts` canonical cuts must be the
		// Cuts-th zone of the canonical path.
		if res.OtherZone != path[res.Cuts] {
			t.Fatalf("trial %d: OtherZone %v != canonical zone %v (cuts=%d)",
				trial, res.OtherZone, path[res.Cuts], res.Cuts)
		}
	}
}

// ZonePath returns the sequence of nested zones produced while computing
// DestZone, including the field itself; ZonePath(...)[h] is the destination
// zone.
func ZonePath(field Rect, d Point, h int, first Direction) []Rect {
	path := make([]Rect, 0, h+1)
	zone := field
	path = append(path, zone)
	dir := first
	for i := 0; i < h; i++ {
		zone = zone.Side(dir, d)
		path = append(path, zone)
		dir = dir.Flip()
	}
	return path
}
