package core

import (
	"testing"

	"alertmanet/internal/geo"
	"alertmanet/internal/rng"
)

// TestStep covers each branch of the forwarder's partition decision on a
// 1000x1000 field whose Z_D is [750,1000]x[500,1000] (H = 3).
func TestStep(t *testing.T) {
	field := geo.Rect{Max: geo.Point{X: 1000, Y: 1000}}
	zd := geo.DestZone(field, geo.Point{X: 900, Y: 900}, 3, geo.Vertical)
	rect := func(x0, y0, x1, y1 float64) geo.Rect {
		return geo.Rect{Min: geo.Point{X: x0, Y: y0}, Max: geo.Point{X: x1, Y: y1}}
	}
	east, north := rect(500, 0, 1000, 1000), rect(0, 500, 1000, 1000)
	quadrant, slab := rect(500, 500, 1000, 1000), rect(750, 0, 1000, 1000)
	start := Partition{LZD: zd, Dir: geo.Vertical, Hmax: 3, Zone: field}
	with := func(edit func(*Partition)) Partition {
		st := start
		edit(&st)
		return st
	}
	cases := []struct {
		name      string
		st        Partition
		pos       geo.Point
		alternate bool
		deliver   bool
		want      Partition // the state after Step, TD aside
		tdIn      geo.Rect  // where the drawn TD must lie
	}{
		{name: "holder inside Z_D", st: start, pos: geo.Point{X: 800, Y: 800},
			alternate: true, deliver: true, want: start},
		{name: "final leg", st: with(func(st *Partition) { st.FinalLeg = true }),
			pos: geo.Point{X: 100, Y: 100}, alternate: true, deliver: true,
			want: with(func(st *Partition) { st.FinalLeg = true })},
		{name: "separated", st: start, pos: geo.Point{X: 100, Y: 100}, alternate: true,
			want: with(func(st *Partition) { st.Zone, st.Hdiv, st.Dir = east, 1, geo.Horizontal }),
			tdIn: east},
		{name: "separated after two cuts", st: start, pos: geo.Point{X: 600, Y: 100}, alternate: true,
			want: with(func(st *Partition) { st.Zone, st.Hdiv, st.Dir = quadrant, 2, geo.Vertical }),
			tdIn: quadrant},
		{name: "divisions spent",
			st:  with(func(st *Partition) { st.Zone, st.Hdiv = quadrant, 3 }),
			pos: geo.Point{X: 600, Y: 600}, alternate: true,
			want: with(func(st *Partition) { st.Zone, st.Hdiv, st.FinalLeg = quadrant, 3, true }),
			tdIn: zd},
		{name: "GPSR overshoot re-derives from the field",
			st:  with(func(st *Partition) { st.Zone, st.Hdiv, st.Dir = east, 1, geo.Horizontal }),
			pos: geo.Point{X: 100, Y: 100}, alternate: true,
			want: with(func(st *Partition) { st.Zone, st.Hdiv, st.Dir = north, 2, geo.Vertical }),
			tdIn: north},
		{name: "fixed axis keeps the direction", st: start, pos: geo.Point{X: 600, Y: 100},
			want: with(func(st *Partition) { st.Zone, st.Hdiv = slab, 2 }),
			tdIn: slab},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := c.st
			if got := Step(&st, c.pos, field, c.alternate, rng.New(1)); got != c.deliver {
				t.Fatalf("Step = %v, want %v", got, c.deliver)
			}
			if !c.deliver {
				if !c.tdIn.Contains(st.TD) {
					t.Errorf("TD %v outside %v", st.TD, c.tdIn)
				}
				st.TD = geo.Point{}
			}
			if st != c.want {
				t.Errorf("state after Step:\n got %+v\nwant %+v", st, c.want)
			}
		})
	}
}
