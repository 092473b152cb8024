// Package mobility implements the node movement models used in the paper's
// evaluation (Section 5.1): the random waypoint model [17] and the reference
// point group mobility model [18], plus a static placement for baselines.
//
// Positions are computed analytically as a deterministic function of
// simulated time. Each node owns a private random stream, so Position may
// be queried for any node at any time, in any order, and always returns the
// same trajectory for a given experiment seed.
package mobility

import (
	"math"
	"sort"

	"alertmanet/internal/geo"
	"alertmanet/internal/rng"
)

// Model yields node positions over simulated time.
type Model interface {
	// Position returns the location of node id at time t (seconds).
	// id must be in [0, N()); t must be >= 0.
	Position(id int, t float64) geo.Point
	// N returns the number of nodes.
	N() int
	// Field returns the network area nodes move within.
	Field() geo.Rect
	// MaxSpeed bounds every node's speed at every time, in m/s: over any
	// dt >= 0, |Position(id, t+dt) − Position(id, t)| <= MaxSpeed()·dt,
	// up to rounding. A model that cannot bound it (one whose nodes jump)
	// returns +Inf.
	MaxSpeed() float64
}

// Forker runs fn over a disjoint partition of [0, n) and returns when every
// call has — sim.For has this shape, and the func type lets the harness
// pass it in without this package importing sim. Construction loops whose
// per-index work is independent (per-node walkers with private split rng
// streams) use it to build large fields on all cores; a nil Forker means
// serial. Constructors branch on nil rather than funnel through a helper so
// the serial path allocates no closures.
type Forker func(n int, fn func(lo, hi int))

// leg is one straight movement segment: travel from 'from' toward 'to'
// starting at t0.
type leg struct {
	t0       float64
	from, to geo.Point
	speed    float64
	d        float64 // |to - from|, the divisor of at's travelled fraction
	arrive   float64 // time the node reaches 'to'; the next leg starts here
}

// walker generates a lazy, cached random-waypoint trajectory inside a box:
// straight legs at one fixed speed, with no pause at the waypoints.
type walker struct {
	src   *rng.Source
	box   geo.Rect
	speed float64
	start geo.Point
	legs  []leg
	// memo is the owning node's last Position answer. Only the per-node
	// walkers (RandomWaypoint's, GroupMobility's local ones) use it;
	// GroupMobility's reference walkers serve a whole group, and their
	// answer is folded into each member's memo instead.
	memo memo
}

// memo caches one node's last Position answer, keyed by the exact query
// time: a broadcast sweep, the zone handlers it triggers and the ARQ
// arrivals of one event instant all ask for the same (id, t). The key
// starts as NaN, which equals no query time, so an empty memo never
// answers (a zero key would answer a first query at t = 0 with the zero
// point).
type memo struct {
	t float64
	p geo.Point
}

func newWalker(src *rng.Source, box geo.Rect, speed float64) *walker {
	w := &walker{src: src, box: box, speed: speed, memo: memo{t: math.NaN()}}
	w.start = geo.RandomPoint(box, src)
	return w
}

// extend generates legs until the trajectory covers time t.
func (w *walker) extend(t float64) {
	for {
		var cur geo.Point
		var t0 float64
		if n := len(w.legs); n == 0 {
			cur, t0 = w.start, 0
		} else {
			last := w.legs[n-1]
			if last.arrive > t {
				return
			}
			cur, t0 = last.to, last.arrive
		}
		to := geo.RandomPoint(w.box, w.src)
		d := cur.Dist(to)
		if w.speed <= 0 || d == 0 {
			// Stationary node: a single infinite "leg" at cur.
			w.legs = append(w.legs, leg{t0: t0, from: cur, to: cur, arrive: 1e300})
			return
		}
		w.legs = append(w.legs, leg{t0: t0, from: cur, to: to, speed: w.speed, d: d,
			arrive: t0 + d/w.speed})
	}
}

// at returns the walker's position at time t.
func (w *walker) at(t float64) geo.Point {
	if t < 0 {
		t = 0
	}
	w.extend(t)
	// Binary search for the leg containing t.
	i := sort.Search(len(w.legs), func(i int) bool { return w.legs[i].arrive > t })
	if i == len(w.legs) {
		i = len(w.legs) - 1
	}
	l := w.legs[i]
	if l.speed == 0 || t >= l.arrive {
		return l.to
	}
	frac := (t - l.t0) * l.speed / l.d
	if frac > 1 {
		frac = 1
	}
	return l.from.Lerp(l.to, frac)
}

// RandomWaypoint is the classic random waypoint model: each node repeatedly
// picks a uniform destination in the field and travels to it in a straight
// line. The paper moves every node at one fixed speed (2 m/s default, up
// to 8 m/s in sweeps) with no pause.
type RandomWaypoint struct {
	field   geo.Rect
	speed   float64
	walkers []*walker
}

// NewRandomWaypoint creates a random waypoint model for n nodes on field,
// moving at speed m/s (0 keeps them static). A non-nil fork parallelizes
// construction; only build wall time changes.
func NewRandomWaypoint(field geo.Rect, n int, speed float64, fork Forker, src *rng.Source) *RandomWaypoint {
	m := &RandomWaypoint{field: field, speed: speed, walkers: make([]*walker, n)}
	// SplitIndex derives each stream from the immutable parent seed, and
	// every walker draws only from its own stream, so construction order is
	// free: the parallel build is trajectory-identical to the serial one.
	if fork == nil {
		for i := 0; i < n; i++ {
			m.walkers[i] = newWalker(src.SplitIndex("rwp", i), field, speed)
		}
		return m
	}
	fork(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.walkers[i] = newWalker(src.SplitIndex("rwp", i), field, speed)
		}
	})
	return m
}

// Position implements Model.
func (m *RandomWaypoint) Position(id int, t float64) geo.Point {
	w := m.walkers[id]
	if t != w.memo.t {
		w.memo = memo{t: t, p: w.at(t)}
	}
	return w.memo.p
}

// N implements Model.
func (m *RandomWaypoint) N() int { return len(m.walkers) }

// Field implements Model.
func (m *RandomWaypoint) Field() geo.Rect { return m.field }

// MaxSpeed implements Model: every leg runs at the one speed (a walker
// with speed <= 0 stands still).
func (m *RandomWaypoint) MaxSpeed() float64 { return math.Max(m.speed, 0) }

// Static places nodes uniformly at random and never moves them.
type Static struct {
	field     geo.Rect
	positions []geo.Point
}

// NewStatic creates a static uniform placement of n nodes.
func NewStatic(field geo.Rect, n int, src *rng.Source) *Static {
	s := &Static{field: field, positions: make([]geo.Point, n)}
	placement := src.Split("static")
	for i := range s.positions {
		s.positions[i] = geo.RandomPoint(field, placement)
	}
	return s
}

// Position implements Model.
func (s *Static) Position(id int, _ float64) geo.Point { return s.positions[id] }

// N implements Model.
func (s *Static) N() int { return len(s.positions) }

// Field implements Model.
func (s *Static) Field() geo.Rect { return s.field }

// MaxSpeed implements Model.
func (s *Static) MaxSpeed() float64 { return 0 }

// GroupMobility is the reference point group mobility model [18]: nodes are
// divided into groups; each group has a logical reference point performing
// random waypoint movement over the field, and each member wanders within a
// bounded box (the group's "movement range", e.g. 150 m for 10 groups or
// 200 m for 5 groups in the paper) around that reference point.
type GroupMobility struct {
	field      geo.Rect
	refs       []*walker // one per group
	local      []*walker // one per node, in a box centered at the origin
	groupOf    []int
	groupRange float64
	speed      float64 // the reference walkers' speed; members add half
}

// NewGroupMobility creates a group mobility model: n nodes in numGroups
// groups, each confined within a groupRange x groupRange box around its
// reference point, which moves at speed m/s. Nodes are assigned to groups
// contiguously; fork is as for NewRandomWaypoint.
func NewGroupMobility(field geo.Rect, n, numGroups int, groupRange, speed float64,
	fork Forker, src *rng.Source) *GroupMobility {
	if numGroups < 1 {
		numGroups = 1
	}
	g := &GroupMobility{
		field:      field,
		refs:       make([]*walker, numGroups),
		local:      make([]*walker, n),
		groupOf:    make([]int, n),
		groupRange: groupRange,
		speed:      speed,
	}
	// Shrink the reference field so member boxes stay mostly inside.
	half := groupRange / 2
	refField := geo.Rect{
		Min: geo.Point{X: field.Min.X + half, Y: field.Min.Y + half},
		Max: geo.Point{X: field.Max.X - half, Y: field.Max.Y - half},
	}
	if refField.Empty() {
		refField = field
	}
	localBox := geo.Rect{Min: geo.Point{X: -half, Y: -half}, Max: geo.Point{X: half, Y: half}}
	// Members drift within their box at a fraction of the group speed,
	// which keeps intra-group topology relatively stable — the property
	// the paper leans on ("nodes are less randomly distributed in the
	// group mobility model"). The loops are written out twice so the
	// serial path allocates no closures.
	if fork == nil {
		for gi := 0; gi < numGroups; gi++ {
			g.refs[gi] = newWalker(src.SplitIndex("group-ref", gi), refField, speed)
		}
		for i := 0; i < n; i++ {
			g.groupOf[i] = i * numGroups / n
			g.local[i] = newWalker(src.SplitIndex("group-local", i), localBox, speed/2)
		}
		return g
	}
	fork(numGroups, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			g.refs[gi] = newWalker(src.SplitIndex("group-ref", gi), refField, speed)
		}
	})
	fork(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.groupOf[i] = i * numGroups / n
			g.local[i] = newWalker(src.SplitIndex("group-local", i), localBox, speed/2)
		}
	})
	return g
}

// Position implements Model: reference point plus bounded local offset,
// clamped to the field. The answer is memoised on the node's own local
// walker, never on the shared reference walker.
func (g *GroupMobility) Position(id int, t float64) geo.Point {
	l := g.local[id]
	if t != l.memo.t {
		ref := g.refs[g.groupOf[id]].at(t)
		off := l.at(t)
		l.memo = memo{t: t, p: g.field.Clamp(geo.Point{X: ref.X + off.X, Y: ref.Y + off.Y})}
	}
	return l.memo.p
}

// N implements Model.
func (g *GroupMobility) N() int { return len(g.local) }

// Field implements Model.
func (g *GroupMobility) Field() geo.Rect { return g.field }

// MaxSpeed implements Model: a member moves with its reference point
// (speed) plus its own local walk (speed/2), and the field clamp never
// lengthens a move.
func (g *GroupMobility) MaxSpeed() float64 { return 1.5 * math.Max(g.speed, 0) }

// Groups returns the number of groups.
func (g *GroupMobility) Groups() int { return len(g.refs) }

// GroupOf returns the group index of a node.
func (g *GroupMobility) GroupOf(id int) int { return g.groupOf[id] }

// NodesIn returns the ids of all nodes of m located inside zone at time t.
func NodesIn(m Model, zone geo.Rect, t float64) []int {
	return NodesInInto(m, zone, t, nil)
}

// NodesInInto is NodesIn with a caller-reusable destination: ids are
// appended to dst[:0] and the (possibly regrown) slice is returned, so a
// loop over many zones reuses one backing array instead of regrowing a
// fresh slice per query.
func NodesInInto(m Model, zone geo.Rect, t float64, dst []int) []int {
	ids := dst[:0]
	for id := 0; id < m.N(); id++ {
		if zone.Contains(m.Position(id, t)) {
			ids = append(ids, id)
		}
	}
	return ids
}
