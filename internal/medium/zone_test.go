package medium

import (
	"math"
	"slices"
	"testing"

	"alertmanet/internal/geo"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

// speedModel overrides a model's speed bound; NaN and +Inf bound nothing.
type speedModel struct {
	*sweepModel
	speed float64
}

func (m speedModel) MaxSpeed() float64 { return m.speed }

// zoneCrossers builds nodes that cross every edge of zone, both ways, at
// 3 m/s, crossing at staggered times in the first ten seconds; nodes that
// slide along each edge line; and static nodes exactly on each edge and
// corner and one ulp either side of an edge.
func zoneCrossers(zone geo.Rect) *movingModel {
	m := &movingModel{}
	add := func(p, v geo.Point) {
		m.start = append(m.start, p)
		m.vel = append(m.vel, v)
	}
	const v = 3.0
	mid := zone.Center()
	for i := 0; i < 10; i++ {
		off := v * (0.37 + float64(i)) // crosses at t = 0.37 + i
		add(geo.Point{X: zone.Min.X - off, Y: mid.Y}, geo.Point{X: v})
		add(geo.Point{X: zone.Min.X + off, Y: mid.Y + 1}, geo.Point{X: -v})
		add(geo.Point{X: zone.Max.X + off, Y: mid.Y}, geo.Point{X: -v})
		add(geo.Point{X: zone.Max.X - off, Y: mid.Y + 1}, geo.Point{X: v})
		add(geo.Point{X: mid.X, Y: zone.Min.Y - off}, geo.Point{Y: v})
		add(geo.Point{X: mid.X + 1, Y: zone.Min.Y + off}, geo.Point{Y: -v})
		add(geo.Point{X: mid.X, Y: zone.Max.Y + off}, geo.Point{Y: -v})
		add(geo.Point{X: mid.X + 1, Y: zone.Max.Y - off}, geo.Point{Y: v})
	}
	add(geo.Point{X: zone.Min.X, Y: zone.Min.Y - 20}, geo.Point{Y: v})
	add(geo.Point{X: zone.Max.X + 20, Y: zone.Max.Y}, geo.Point{X: -v})
	for _, p := range []geo.Point{
		zone.Min, zone.Max, {X: zone.Min.X, Y: zone.Max.Y}, {X: zone.Max.X, Y: zone.Min.Y},
		{X: zone.Min.X, Y: mid.Y}, {X: zone.Max.X, Y: mid.Y}, {X: mid.X, Y: zone.Min.Y}, {X: mid.X, Y: zone.Max.Y},
		{X: math.Nextafter(zone.Min.X, 0), Y: mid.Y}, {X: math.Nextafter(zone.Max.X, 1e9), Y: mid.Y},
		{X: mid.X, Y: math.Nextafter(zone.Min.Y, 0)}, {X: mid.X, Y: math.Nextafter(zone.Max.Y, 1e9)},
	} {
		add(p, geo.Point{})
	}
	return m
}

// TestInZoneNowExact holds InZoneNow to zone.Contains(PositionNow) for
// nodes crossing every edge of a zone, static nodes on and beside its
// edges, at beacon instants, just after them and in between, under the
// model's own speed bound, an unbounded one and a NaN one. NodesWithinInto
// must list exactly the nodes inside. With the model's bound the beacon
// decides most answers, so far fewer positions are asked for.
func TestInZoneNowExact(t *testing.T) {
	zone := geo.Rect{Min: geo.Point{X: 300, Y: 400}, Max: geo.Point{X: 600.5, Y: 700.25}}
	base := zoneCrossers(zone)
	var times []float64
	draw := rng.New(91)
	for k := 0; k <= 12; k++ {
		times = append(times, float64(k)*0.7, float64(k)*0.7+1e-9)
	}
	for k := 0; k < 40; k++ {
		times = append(times, draw.Uniform(0, 12))
	}
	queries := map[string]int{}
	for _, c := range []struct {
		name  string
		speed float64
	}{{"bounded", base.MaxSpeed()}, {"unbounded", math.Inf(1)}, {"nan", math.NaN()}} {
		counted := &sweepModel{Model: base}
		mob := speedModel{counted, c.speed}
		par := DefaultParams()
		par.HelloInterval = 0.7
		eng := sim.NewEngine()
		med := MustNew(eng, mob, par, rng.New(92))
		inside, outside := 0, 0
		var ids []NodeID
		for _, at := range times {
			eng.At(at, func() {
				var want []NodeID
				for id := 0; id < mob.N(); id++ {
					in := zone.Contains(base.Position(id, eng.Now()))
					if got := med.InZoneNow(NodeID(id), zone); got != in {
						t.Fatalf("%s t=%v node %d at %v (beacon %v): InZoneNow %v, Contains %v",
							c.name, eng.Now(), id, base.Position(id, eng.Now()), med.beacons.pos[id], got, in)
					}
					if in {
						inside++
						want = append(want, NodeID(id))
					} else {
						outside++
					}
				}
				ids = med.NodesWithinInto(zone, ids)
				if !slices.Equal(ids, want) {
					t.Fatalf("%s t=%v: NodesWithinInto %v, want %v", c.name, eng.Now(), ids, want)
				}
			})
		}
		eng.Run()
		if inside == 0 || outside == 0 {
			t.Fatalf("%s: %d answers inside, %d outside", c.name, inside, outside)
		}
		queries[c.name] = counted.queries
	}
	if queries["bounded"]*2 >= queries["unbounded"] {
		t.Errorf("Position queries: %d with the speed bound, %d without: the beacon decided too little",
			queries["bounded"], queries["unbounded"])
	}
	t.Logf("Position queries: %v", queries)
}
