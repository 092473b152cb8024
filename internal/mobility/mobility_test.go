package mobility

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"alertmanet/internal/geo"
	"alertmanet/internal/rng"
)

var field = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

func TestRWPStaysInField(t *testing.T) {
	m := NewRandomWaypoint(field, 50, 2, nil, rng.New(1))
	for id := 0; id < m.N(); id++ {
		for _, tm := range []float64{0, 0.5, 1, 10, 33.3, 100, 500} {
			p := m.Position(id, tm)
			if !field.Contains(p) {
				t.Fatalf("node %d at t=%v outside field: %v", id, tm, p)
			}
		}
	}
}

func TestRWPDeterministic(t *testing.T) {
	a := NewRandomWaypoint(field, 20, 2, nil, rng.New(7))
	b := NewRandomWaypoint(field, 20, 2, nil, rng.New(7))
	for id := 0; id < 20; id++ {
		for _, tm := range []float64{0, 5, 50, 100} {
			if a.Position(id, tm) != b.Position(id, tm) {
				t.Fatalf("trajectories differ for node %d at t=%v", id, tm)
			}
		}
	}
}

func TestRWPQueryOrderIndependent(t *testing.T) {
	a := NewRandomWaypoint(field, 5, 2, nil, rng.New(9))
	b := NewRandomWaypoint(field, 5, 2, nil, rng.New(9))
	// Query a forward in time, b backward; trajectories must agree.
	times := []float64{0, 10, 20, 40, 80}
	posA := map[float64]geo.Point{}
	for _, tm := range times {
		posA[tm] = a.Position(0, tm)
	}
	for i := len(times) - 1; i >= 0; i-- {
		tm := times[i]
		if b.Position(0, tm) != posA[tm] {
			t.Fatalf("query order changed trajectory at t=%v", tm)
		}
	}
}

func TestRWPSpeedBound(t *testing.T) {
	const speed = 4.0
	m := NewRandomWaypoint(field, 10, speed, nil, rng.New(3))
	const dt = 0.25
	for id := 0; id < 10; id++ {
		prev := m.Position(id, 0)
		for tm := dt; tm < 60; tm += dt {
			cur := m.Position(id, tm)
			if d := prev.Dist(cur); d > speed*dt+1e-9 {
				t.Fatalf("node %d moved %v m in %v s (speed %v)", id, d, dt, speed)
			}
			prev = cur
		}
	}
}

func TestRWPZeroSpeedIsStatic(t *testing.T) {
	m := NewRandomWaypoint(field, 10, 0, nil, rng.New(4))
	for id := 0; id < 10; id++ {
		p0 := m.Position(id, 0)
		if m.Position(id, 1000) != p0 {
			t.Fatalf("zero-speed node %d moved", id)
		}
	}
}

func TestRWPActuallyMoves(t *testing.T) {
	m := NewRandomWaypoint(field, 10, 2, nil, rng.New(5))
	moved := 0
	for id := 0; id < 10; id++ {
		if m.Position(id, 0).Dist(m.Position(id, 50)) > 1 {
			moved++
		}
	}
	if moved < 8 {
		t.Fatalf("only %d/10 nodes moved appreciably in 50 s at 2 m/s", moved)
	}
}

func TestStatic(t *testing.T) {
	m := NewStatic(field, 30, rng.New(2))
	if m.N() != 30 || m.Field() != field {
		t.Fatal("metadata wrong")
	}
	for id := 0; id < 30; id++ {
		p := m.Position(id, 0)
		if !field.Contains(p) {
			t.Fatalf("node %d outside field", id)
		}
		if m.Position(id, 12345) != p {
			t.Fatalf("static node %d moved", id)
		}
	}
}

func TestStaticSpread(t *testing.T) {
	m := NewStatic(field, 200, rng.New(11))
	// All four quadrants should be populated for a uniform placement.
	quad := [4]int{}
	for id := 0; id < 200; id++ {
		p := m.Position(id, 0)
		i := 0
		if p.X > 500 {
			i |= 1
		}
		if p.Y > 500 {
			i |= 2
		}
		quad[i]++
	}
	for i, c := range quad {
		if c < 20 {
			t.Fatalf("quadrant %d has only %d/200 nodes", i, c)
		}
	}
}

func TestGroupMobilityBasics(t *testing.T) {
	m := NewGroupMobility(field, 200, 10, 150, 2, nil, rng.New(12))
	if m.N() != 200 || m.Groups() != 10 {
		t.Fatal("metadata wrong")
	}
	for id := 0; id < m.N(); id++ {
		for _, tm := range []float64{0, 10, 50, 100} {
			if !field.Contains(m.Position(id, tm)) {
				t.Fatalf("node %d escaped field at t=%v", id, tm)
			}
		}
	}
}

func TestGroupMembersStayNearReference(t *testing.T) {
	const rangeM = 150.0
	m := NewGroupMobility(field, 100, 5, rangeM, 2, nil, rng.New(13))
	for id := 0; id < m.N(); id++ {
		g := m.GroupOf(id)
		for _, tm := range []float64{0, 25, 75} {
			p := m.Position(id, tm)
			ref := m.refs[g].at(tm)
			// Offset is bounded by the box half-diagonal.
			maxD := rangeM / 2 * math.Sqrt2
			if p.Dist(ref) > maxD+1e-6 {
				t.Fatalf("node %d strayed %v m from its reference (max %v)",
					id, p.Dist(ref), maxD)
			}
		}
	}
}

func TestGroupAssignmentContiguous(t *testing.T) {
	m := NewGroupMobility(field, 100, 10, 150, 2, nil, rng.New(14))
	last := -1
	for id := 0; id < 100; id++ {
		g := m.GroupOf(id)
		if g < last {
			t.Fatal("group assignment not monotone")
		}
		last = g
	}
	if last != 9 {
		t.Fatalf("last group = %d, want 9", last)
	}
	// Each group gets 10 nodes.
	count := map[int]int{}
	for id := 0; id < 100; id++ {
		count[m.GroupOf(id)]++
	}
	for g, c := range count {
		if c != 10 {
			t.Fatalf("group %d has %d nodes", g, c)
		}
	}
}

func TestGroupClustering(t *testing.T) {
	// Members of the same group should be far closer to each other on
	// average than members of different groups.
	m := NewGroupMobility(field, 100, 5, 150, 2, nil, rng.New(15))
	var sameSum, diffSum float64
	var sameN, diffN int
	for a := 0; a < 100; a += 3 {
		for b := a + 1; b < 100; b += 7 {
			d := m.Position(a, 50).Dist(m.Position(b, 50))
			if m.GroupOf(a) == m.GroupOf(b) {
				sameSum += d
				sameN++
			} else {
				diffSum += d
				diffN++
			}
		}
	}
	if sameN == 0 || diffN == 0 {
		t.Skip("sampling produced no pairs")
	}
	same := sameSum / float64(sameN)
	diff := diffSum / float64(diffN)
	if same >= diff {
		t.Fatalf("intra-group distance %v >= inter-group %v", same, diff)
	}
}

func TestNodesIn(t *testing.T) {
	m := NewStatic(field, 100, rng.New(16))
	zone := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 500, Y: 500}}
	ids := NodesIn(m, zone, 0)
	for _, id := range ids {
		if !zone.Contains(m.Position(id, 0)) {
			t.Fatalf("node %d reported in zone but isn't", id)
		}
	}
	// Complement check.
	inSet := map[int]bool{}
	for _, id := range ids {
		inSet[id] = true
	}
	for id := 0; id < 100; id++ {
		if !inSet[id] && zone.Contains(m.Position(id, 0)) {
			t.Fatalf("node %d in zone but not reported", id)
		}
	}
}

// Property: positions are always inside the field for arbitrary query times
// and model parameters.
func TestQuickInField(t *testing.T) {
	f := func(seed int64, speedRaw, tRaw uint16, group bool) bool {
		speed := float64(speedRaw%10) + 0.5
		tm := float64(tRaw) / 10
		var m Model
		if group {
			m = NewGroupMobility(field, 20, 4, 150, speed, nil, rng.New(seed))
		} else {
			m = NewRandomWaypoint(field, 20, speed, nil, rng.New(seed))
		}
		for id := 0; id < m.N(); id++ {
			if !field.Contains(m.Position(id, tm)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: trajectory is continuous — small dt implies small displacement
// bounded by speed*dt.
func TestQuickContinuity(t *testing.T) {
	m := NewRandomWaypoint(field, 10, 8, nil, rng.New(19))
	f := func(idRaw uint8, tRaw uint16) bool {
		id := int(idRaw) % 10
		tm := float64(tRaw) / 100
		const dt = 0.01
		a := m.Position(id, tm)
		b := m.Position(id, tm+dt)
		return a.Dist(b) <= 8*dt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPositionQueryOrderFree pins Position as a pure function of (id, t)
// whatever order the queries come in, so the per-node memo can never
// answer for a different instant: every (id, t) must match, bit for bit, a
// fresh model queried once per id in ascending time. A memo key initialised
// to zero instead of NaN fails the t=0-first order.
func TestPositionQueryOrderFree(t *testing.T) {
	const n = 12
	models := map[string]func() Model{
		"rwp":   func() Model { return NewRandomWaypoint(field, n, 6, nil, rng.New(31)) },
		"group": func() Model { return NewGroupMobility(field, n, 3, 150, 6, nil, rng.New(32)) },
	}
	times := []float64{-3, -0.5, 0, 0.25, 1, 7.5, 7.5000001, 60, 333}
	type query struct {
		id int
		t  float64
	}
	var forward, backward, byTime, repeated, zeroFirst, negativeFirst []query
	for id := 0; id < n; id++ {
		for _, tm := range times {
			forward = append(forward, query{id, tm})
			repeated = append(repeated, query{id, tm}, query{id, tm})
		}
		for i := len(times) - 1; i >= 0; i-- {
			backward = append(backward, query{id, times[i]})
		}
	}
	for _, tm := range times {
		for id := n - 1; id >= 0; id-- {
			byTime = append(byTime, query{id, tm})
		}
	}
	for id := 0; id < n; id++ {
		zeroFirst = append(zeroFirst, query{id, 0})
		negativeFirst = append(negativeFirst, query{id, -1}, query{id, 0})
	}
	zeroFirst = append(zeroFirst, backward...)
	negativeFirst = append(negativeFirst, byTime...)
	orders := map[string][]query{
		"repeated":       repeated,
		"backward":       backward,
		"interleaved-id": byTime,
		"t0-first":       zeroFirst,
		"negative-first": negativeFirst,
	}
	same := func(a, b geo.Point) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) &&
			math.Float64bits(a.Y) == math.Float64bits(b.Y)
	}
	for name, build := range models {
		// The reference answers each id from its own fresh model, in
		// ascending time, so no other query can have touched its state.
		want := map[query]geo.Point{}
		for id := 0; id < n; id++ {
			ref := build()
			for _, tm := range append([]float64{-1}, times...) {
				want[query{id, tm}] = ref.Position(id, tm)
			}
		}
		for order, qs := range orders {
			m := build()
			for _, q := range qs {
				if got := m.Position(q.id, q.t); !same(got, want[q]) {
					t.Fatalf("%s, %s order: Position(%d, %v) = %v, want %v",
						name, order, q.id, q.t, got, want[q])
				}
			}
		}
	}
}

// BenchmarkPosition times one Position query per op in a forward sweep:
// every id of a 200-node paper-default random-waypoint field at one
// instant, then every id again 10 ms later. No (id, t) repeats, so each
// query misses the memo and evaluates the trajectory.
func BenchmarkPosition(b *testing.B) {
	const n = 200
	m := NewRandomWaypoint(field, n, 2, nil, rng.New(1))
	var sink geo.Point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = m.Position(i%n, float64(i/n)*0.01)
	}
	benchSink = sink
}

var benchSink geo.Point

// preemptTrace sends node 0 on setdests that each cut the previous one
// short, one of them toward a point outside the field, and node 2 back
// and forth across the field; node 1 never moves.
const preemptTrace = `
$node_(0) set X_ 100.0
$node_(0) set Y_ 100.0
$node_(1) set X_ 400.0
$node_(1) set Y_ 600.0
$node_(2) set X_ 10.0
$node_(2) set Y_ 10.0
$ns_ at 0.5 "$node_(0) setdest 900.0 900.0 5.0"
$ns_ at 3.25 "$node_(0) setdest 50.0 800.0 9.5"
$ns_ at 4.0 "$node_(0) setdest 2000.0 -500.0 3.0"
$ns_ at 40.0 "$node_(0) setdest 500.0 500.0 0.0"
$ns_ at 1.0 "$node_(2) setdest 990.0 10.0 7.25"
$ns_ at 1.5 "$node_(2) setdest 10.0 990.0 7.25"
$ns_ at 60.0 "$node_(2) setdest 990.0 990.0 7.25"
`

// TestMaxSpeedBoundsDisplacement holds each model to its MaxSpeed: over
// random (t, dt) with dt from 0 to 3 s, no node moves farther than
// MaxSpeed·dt, up to a few ulp of the field's coordinates. medium's
// broadcast sweep skips nodes on exactly this bound.
func TestMaxSpeedBoundsDisplacement(t *testing.T) {
	trace, err := ParseNS2(strings.NewReader(preemptTrace), field)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		m     Model
		speed float64
	}{
		{"rwp-0", NewRandomWaypoint(field, 20, 0, nil, rng.New(41)), 0},
		{"rwp-2", NewRandomWaypoint(field, 20, 2, nil, rng.New(42)), 2},
		{"rwp-8", NewRandomWaypoint(field, 20, 8, nil, rng.New(43)), 8},
		// A 1600 m movement range on a 1000 m field: the reference field
		// falls back to the whole field and members spill over its edge,
		// so the clamp acts on many samples.
		{"group-edge", NewGroupMobility(field, 20, 3, 1600, 8, nil, rng.New(44)), 12},
		{"static", NewStatic(field, 20, rng.New(45)), 0},
		{"ns2-preempted", trace, 9.5},
	}
	ulp := math.Nextafter(field.Max.X, math.Inf(1)) - field.Max.X
	tol := 8 * ulp
	draw := rng.New(46)
	for _, c := range cases {
		v := c.m.MaxSpeed()
		if v != c.speed {
			t.Errorf("%s: MaxSpeed = %v, want %v", c.name, v, c.speed)
		}
		onEdge := 0
		for k := 0; k < 20000; k++ {
			id := draw.Intn(c.m.N())
			t0 := draw.Uniform(0, 120)
			dt := draw.Uniform(0, 3)
			switch k % 8 {
			case 0:
				dt = 0
			case 1:
				dt *= 1e-9
			}
			p, q := c.m.Position(id, t0), c.m.Position(id, t0+dt)
			if d := p.Dist(q); d > v*dt+tol {
				t.Fatalf("%s: node %d moved %v m in %v s from t=%v, bound %v·dt = %v",
					c.name, id, d, dt, t0, v, v*dt)
			}
			if q.X == field.Min.X || q.X == field.Max.X || q.Y == field.Min.Y || q.Y == field.Max.Y {
				onEdge++
			}
		}
		if c.name == "group-edge" && onEdge == 0 {
			t.Errorf("%s: no sample was clamped to the field edge", c.name)
		}
	}
}

// Groups returns the number of groups.
func (g *GroupMobility) Groups() int { return len(g.refs) }

// GroupOf returns the group index of a node.
func (g *GroupMobility) GroupOf(id int) int { return g.groupOf[id] }

// NodesIn returns the ids of all nodes of m located inside zone at time t.
func NodesIn(m Model, zone geo.Rect, t float64) []int {
	return NodesInInto(m, zone, t, nil)
}
