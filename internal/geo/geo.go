// Package geo provides the planar geometry underlying ALERT: points,
// rectangles, and the hierarchical zone partition (alternating vertical and
// horizontal bisections) used both to compute the destination zone Z_D and
// to choose temporary destinations during routing (Shen & Zhao, Sections
// 2.3-2.4).
package geo

import (
	"fmt"
	"math"
)

// Point is a position in the network field, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared euclidean distance (cheaper; for comparisons).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// withinBand is the relative half-width of the band around r² inside which
// Within defers to Dist. Dist2 and r*r each carry a few ulp (~1e-16) of
// rounding error and math.Hypot is accurate to a few ulp, so outside this
// band the squared comparison cannot disagree with Dist(q) <= r.
const withinBand = 1e-9

// Within reports whether q lies within distance r of p, with exactly the
// answer of p.Dist(q) <= r but without the math.Hypot call away from the
// boundary. It is BandOf(r).Within(p, q); a loop testing many pairs against
// one radius hoists the band and pre-tests each pair with Band.Sure.
func (p Point) Within(q Point, r float64) bool {
	return BandOf(r).Within(p, q)
}

// Band is Within's test for one radius r, with r*r and the band around it
// computed once. Radii outside [2^-500, 2^500], negative and NaN included,
// get an empty band and always take the Dist path, because r*r could
// underflow or overflow there. Inside it a Dist2 that overflows to +Inf
// still answers false correctly, and a NaN Dist2 fails both comparisons
// and falls through to Dist.
type Band struct {
	r, in2, out2 float64
}

// BandOf returns the band of radius r.
func BandOf(r float64) Band {
	if r >= 0x1p-500 && r <= 0x1p500 {
		r2 := r * r
		return Band{r: r, in2: r2 * (1 - withinBand), out2: r2 * (1 + withinBand)}
	}
	return Band{r: r, in2: -1, out2: math.Inf(1)}
}

// Within reports p.Dist(q) <= r, exactly.
func (b Band) Within(p, q Point) bool {
	if in, sure := b.Sure(p.Dist2(q)); sure {
		return in
	}
	return p.Dist(q) <= b.r
}

// Sure is Within's pre-test on the squared distance d2 = p.Dist2(q) alone:
// sure reports that d2 lies outside the band, where in is Within's answer.
// Inside the band (sure false, NaN included) only Within decides. Within
// calls math.Hypot and so is a call; Sure inlines, so a loop that tests
// d2 first pays that call only for the rare pair inside the band.
func (b Band) Sure(d2 float64) (in, sure bool) {
	return d2 < b.in2, d2 < b.in2 || d2 > b.out2
}

// Bounds returns the squared bounds Sure tests d2 against: d2 < in2 is
// surely within the radius, d2 > out2 surely beyond it, and anything
// between them, NaN included, is Within's to decide. An empty band's are
// −1 and +Inf. A loop that sorts many squared distances with Sift instead
// of a branch per pair reads them here.
func (b Band) Bounds() (in2, out2 float64) { return b.in2, b.out2 }

// Sift decides a squared distance d2 against squared bounds in2 < out2,
// such as a Band's, without a branch, for a loop that keeps candidates by
// arithmetic: keep is 0 when d2 > out2, surely out, and 1 otherwise, NaN
// included; in is 1 when d2 < in2, surely in, and 0 otherwise. A
// candidate with keep 1 and in 0 is the exact test's to decide.
func Sift(d2, in2, out2 float64) (keep, in int) {
	return b2i(!(d2 > out2)), b2i(d2 < in2)
}

// b2i is 1 for true and 0 for false; the compiler sets it from the flags,
// without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// Nearest tracks which of the points offered to it in turn lies nearest a
// target, starting from an incumbent. A candidate replaces the incumbent
// only when it is strictly nearer, so of tied candidates the first wins:
// exactly the choice of a loop that keeps c when c.Dist(target) < best.
// It compares Dist2 against the withinBand band around the incumbent's
// Dist2 and calls Dist only inside it, where rounding could order the
// squares differently from the distances. An incumbent whose Dist2 lies
// outside [2^-1000, 2^1000] (zero, subnormal, overflowing or NaN) has an
// empty band, so every candidate takes the Dist path against it.
type Nearest struct {
	target, at Point
	in2, out2  float64
	d          float64 // at.Dist(target), valid when known
	known      bool
}

// NewNearest starts tracking with incumbent as the nearest point so far.
func NewNearest(target, incumbent Point) Nearest {
	n := Nearest{target: target}
	n.take(incumbent, incumbent.Dist2(target))
	return n
}

func (n *Nearest) take(c Point, d2 float64) {
	n.at, n.known = c, false
	n.in2, n.out2 = -1, math.Inf(1)
	if d2 >= 0x1p-1000 && d2 <= 0x1p1000 {
		n.in2, n.out2 = d2*(1-withinBand), d2*(1+withinBand)
	}
}

// Offer makes c the incumbent if c.Dist(target) < Dist() and reports
// whether it did.
func (n *Nearest) Offer(c Point) bool {
	d2 := c.Dist2(n.target)
	if d2 < n.in2 {
		n.take(c, d2)
		return true
	}
	if n.Farther(d2) {
		return false
	}
	d := c.Dist(n.target)
	if d < n.Dist() {
		n.take(c, d2)
		n.d, n.known = d, true
		return true
	}
	return false
}

// Farther is Offer's pre-test on a candidate's squared distance d2 =
// c.Dist2(target) alone: true means d2 lies above the incumbent's band, so
// Offer(c) would return false and change nothing. False decides nothing.
// Offer is a call; Farther inlines, so a loop over candidates that tests
// d2 first calls Offer only for those that may win.
func (n *Nearest) Farther(d2 float64) bool { return d2 > n.out2 }

// Dist returns the incumbent's distance to the target.
func (n *Nearest) Dist() float64 {
	if !n.known {
		n.d, n.known = n.at.Dist(n.target), true
	}
	return n.d
}

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [Min.X, Max.X] x [Min.Y, Max.Y].
// The paper describes zone positions by their "upper left and bottom-right"
// corners; with our y-up convention those are (Min.X, Max.Y) and
// (Max.X, Min.Y) — the same rectangle.
type Rect struct {
	Min, Max Point
}

// Width returns the extent along X.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent along Y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle's area (the paper's zone size G for the field).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the rectangle's midpoint.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies in the closed rectangle. Points exactly on
// a shared cut line of a bisection are contained in both halves; Side gives
// the deterministic assignment used by the partition logic.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// Empty reports whether the rectangle has zero or negative extent.
func (r Rect) Empty() bool { return r.Width() <= 0 || r.Height() <= 0 }

func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// Direction selects the orientation of a partition cut.
type Direction uint8

const (
	// Vertical cuts with a vertical line, splitting the X range. The
	// paper's destination-zone construction performs the first cut
	// vertically (Section 2.4).
	Vertical Direction = iota
	// Horizontal cuts with a horizontal line, splitting the Y range.
	Horizontal
)

// Flip returns the other direction; ALERT alternates cut directions and each
// random forwarder flips the packet's direction bit (Section 2.5).
func (d Direction) Flip() Direction {
	if d == Vertical {
		return Horizontal
	}
	return Vertical
}

func (d Direction) String() string {
	if d == Vertical {
		return "vertical"
	}
	return "horizontal"
}

// Bisect splits r into two equal halves along the given direction. For a
// Vertical cut, lo is the left half and hi the right; for Horizontal, lo is
// the bottom half and hi the top.
func (r Rect) Bisect(d Direction) (lo, hi Rect) {
	c := r.Center()
	if d == Vertical {
		lo = Rect{r.Min, Point{c.X, r.Max.Y}}
		hi = Rect{Point{c.X, r.Min.Y}, r.Max}
		return lo, hi
	}
	lo = Rect{r.Min, Point{r.Max.X, c.Y}}
	hi = Rect{Point{r.Min.X, c.Y}, r.Max}
	return lo, hi
}

// Side returns the half of r (after a cut in direction d) that p is assigned
// to: points strictly below the cut line go to lo, all others to hi. This
// gives a deterministic assignment for points exactly on the cut.
func (r Rect) Side(d Direction, p Point) Rect {
	lo, hi := r.Bisect(d)
	if d == Vertical {
		if p.X < lo.Max.X {
			return lo
		}
		return hi
	}
	if p.Y < lo.Max.Y {
		return lo
	}
	return hi
}

// SideIndex is like Side but returns 0 for the lo half and 1 for the hi half.
func (r Rect) SideIndex(d Direction, p Point) int {
	c := r.Center()
	if d == Vertical {
		if p.X < c.X {
			return 0
		}
		return 1
	}
	if p.Y < c.Y {
		return 0
	}
	return 1
}

// uniformSource is the randomness geo needs for TD selection; satisfied by
// *rng.Source without importing it (keeps geo dependency-free).
type uniformSource interface {
	Uniform(lo, hi float64) float64
}

// RandomPoint returns a point uniformly distributed in r.
func RandomPoint(r Rect, src uniformSource) Point {
	return Point{
		X: src.Uniform(r.Min.X, r.Max.X),
		Y: src.Uniform(r.Min.Y, r.Max.Y),
	}
}

// SideLengths implements Eqs. (1)-(2) of the paper: the side lengths of the
// h-th partitioned zone of an lA x lB field when the first cut is vertical.
//
//	a(h, lA) = lA / 2^ceil(h/2)   (X side; vertical cuts halve X first)
//	b(h, lB) = lB / 2^floor(h/2)  (Y side)
//
// Note the paper writes a(h,lA)=lA/2^floor(h/2) for a horizontal-first
// sequence; we expose the vertical-first convention used by its Section 2.4
// example and keep both floor/ceil pairs consistent.
func SideLengths(h int, lA, lB float64) (a, b float64) {
	if h < 0 {
		h = 0
	}
	xCuts := (h + 1) / 2 // ceil(h/2): cuts 1,3,5,... are vertical
	yCuts := h / 2       // floor(h/2): cuts 2,4,6,... are horizontal
	return lA / math.Pow(2, float64(xCuts)), lB / math.Pow(2, float64(yCuts))
}

// PartitionsForK implements H = log2(rho*G/k) (Section 2.4): the number of
// bisections needed so the final zone holds about k of the N = rho*G nodes.
// The result is rounded to the nearest non-negative integer.
func PartitionsForK(totalNodes int, k int) int {
	if totalNodes <= 0 || k <= 0 || k >= totalNodes {
		return 0
	}
	h := math.Round(math.Log2(float64(totalNodes) / float64(k)))
	if h < 0 {
		return 0
	}
	return int(h)
}

// DestZone computes the destination zone Z_D: starting from the whole field,
// perform exactly h bisections, alternating direction starting with first,
// each time keeping the half that contains d (Section 2.4). The source
// computes this once and embeds the zone position in the packet; forwarders
// never see D's position.
func DestZone(field Rect, d Point, h int, first Direction) Rect {
	zone := field
	dir := first
	for i := 0; i < h; i++ {
		zone = zone.Side(dir, d)
		dir = dir.Flip()
	}
	return zone
}

// SeparateResult is the outcome of one routing-partition step (Section 2.3).
type SeparateResult struct {
	// Separated reports whether the forwarder ended up in a different
	// half than Z_D. When false, the forwarder is inside (or effectively
	// at) the destination zone and the last-leg broadcast should begin.
	Separated bool
	// SelfZone is the half containing the forwarder (valid when Separated).
	SelfZone Rect
	// OtherZone is the half containing Z_D, from which the temporary
	// destination is drawn (valid when Separated).
	OtherZone Rect
	// Cuts is how many bisections this step performed (>= 1 when any
	// progress was possible).
	Cuts int
	// NextDir is the direction the next partition should start with.
	NextDir Direction
}

// SeparateWithPolicy performs the forwarder's partition loop: bisect zone,
// starting with dir, always recursing into the half containing both the
// forwarder and Z_D, until the forwarder and Z_D fall into different
// halves. Z_D's half is identified by its center (the canonical hierarchy
// guarantees Z_D never straddles a cut when the phase matches; the center
// rule keeps the step well-defined for any phase).
//
// alternate=true flips the direction after every cut (the paper's design,
// which keeps zones squarish so each temporary destination approaches D);
// alternate=false keeps cutting the same axis, producing ever-thinner slab
// zones — the ablation DESIGN.md calls out. maxCuts bounds the loop (use
// H - h, the divisions remaining); when the bound is hit, or the zone has
// shrunk to Z_D itself, Separated is false.
func SeparateWithPolicy(zone Rect, self Point, zd Rect, dir Direction, maxCuts int,
	alternate bool) SeparateResult {
	res := SeparateResult{NextDir: dir}
	for res.Cuts < maxCuts {
		if zd.ContainsRect(zone) || zone.Area() <= zd.Area() {
			// Zone no longer bigger than Z_D: nothing to separate.
			return res
		}
		lo, hi := zone.Bisect(dir)
		selfHi := zone.SideIndex(dir, self) == 1
		zdHi := zone.SideIndex(dir, zd.Center()) == 1
		res.Cuts++
		if alternate {
			dir = dir.Flip()
		}
		res.NextDir = dir
		if selfHi != zdHi {
			res.Separated = true
			if selfHi {
				res.SelfZone, res.OtherZone = hi, lo
			} else {
				res.SelfZone, res.OtherZone = lo, hi
			}
			return res
		}
		if selfHi {
			zone = hi
		} else {
			zone = lo
		}
	}
	return res
}
