package medium

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"alertmanet/internal/geo"
	"alertmanet/internal/mobility"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

var field = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

// fixedModel pins nodes at given positions for precise range tests.
type fixedModel struct {
	pos []geo.Point
}

func (f *fixedModel) Position(id int, _ float64) geo.Point { return f.pos[id] }
func (f *fixedModel) N() int                               { return len(f.pos) }
func (f *fixedModel) Field() geo.Rect                      { return field }
func (f *fixedModel) MaxSpeed() float64                    { return 0 }

func newFixed(pos ...geo.Point) *fixedModel { return &fixedModel{pos: pos} }

func setup(mob mobility.Model, par Params) (*sim.Engine, *Medium) {
	eng := sim.NewEngine()
	return eng, MustNew(eng, mob, par, rng.New(1))
}

func TestUnicastInRange(t *testing.T) {
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 0})
	eng, med := setup(mob, DefaultParams())
	var got any
	med.Attach(1, func(from NodeID, payload any, size int) {
		if from != 0 || size != 512 {
			t.Errorf("from=%v size=%v", from, size)
		}
		got = payload
	})
	med.Unicast(0, 1, "hello", 512)
	eng.Run()
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
	c := med.Counters()
	if c.UnicastsSent != 1 || c.Delivered != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestUnicastOutOfRange(t *testing.T) {
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 300, Y: 0})
	eng, med := setup(mob, DefaultParams())
	delivered := false
	med.Attach(1, func(NodeID, any, int) { delivered = true })
	med.Unicast(0, 1, "x", 64)
	eng.Run()
	if delivered {
		t.Fatal("out-of-range unicast delivered")
	}
	// Every attempt of the default ARQ budget misses and is counted.
	c := med.Counters()
	want := uint64(1 + DefaultParams().Retries)
	if c.DroppedRange != want || c.Retransmissions != want-1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestUnicastDelayComposition(t *testing.T) {
	par := DefaultParams()
	par.MACDelayMean = 0 // deterministic
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 0})
	eng, med := setup(mob, par)
	var at float64
	med.Attach(1, func(NodeID, any, int) { at = eng.Now() })
	med.Unicast(0, 1, "x", 512)
	eng.Run()
	want := 512 * 8 / par.Bitrate
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestMACJitterAddsDelay(t *testing.T) {
	par := DefaultParams()
	par.MACDelayMean = 0.01
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 0})
	eng, med := setup(mob, par)
	var at float64
	med.Attach(1, func(NodeID, any, int) { at = eng.Now() })
	med.Unicast(0, 1, "x", 512)
	eng.Run()
	base := 512 * 8 / par.Bitrate
	if at <= base {
		t.Fatalf("delivery at %v should exceed pure tx delay %v", at, base)
	}
}

func TestBroadcastReachesOnlyInRange(t *testing.T) {
	mob := newFixed(
		geo.Point{X: 0, Y: 0},   // sender
		geo.Point{X: 100, Y: 0}, // in range
		geo.Point{X: 249, Y: 0}, // in range (boundary)
		geo.Point{X: 251, Y: 0}, // out of range
	)
	eng, med := setup(mob, DefaultParams())
	got := map[NodeID]bool{}
	for id := 1; id <= 3; id++ {
		id := NodeID(id)
		med.Attach(id, func(NodeID, any, int) { got[id] = true })
	}
	med.Broadcast(0, "b", 64)
	eng.Run()
	if !got[1] || !got[2] || got[3] {
		t.Fatalf("receivers = %v", got)
	}
	if med.Counters().BroadcastsSent != 1 || med.Counters().Delivered != 2 {
		t.Fatalf("counters = %+v", med.Counters())
	}
}

func TestBroadcastExcludesSender(t *testing.T) {
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 0})
	eng, med := setup(mob, DefaultParams())
	selfRx := false
	med.Attach(0, func(NodeID, any, int) { selfRx = true })
	med.Attach(1, func(NodeID, any, int) {})
	med.Broadcast(0, "b", 64)
	eng.Run()
	if selfRx {
		t.Fatal("sender received its own broadcast")
	}
}

func TestLossRate(t *testing.T) {
	par := DefaultParams()
	par.LossRate = 1.0
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 0})
	eng, med := setup(mob, par)
	delivered := false
	med.Attach(1, func(NodeID, any, int) { delivered = true })
	med.Unicast(0, 1, "x", 64)
	eng.Run()
	if delivered {
		t.Fatal("LossRate=1 delivered a packet")
	}
	// The whole retry budget burns on the loss coin.
	c := med.Counters()
	want := uint64(1 + par.Retries)
	if c.DroppedLoss != want || c.Retransmissions != want-1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestLossRatePartial(t *testing.T) {
	par := DefaultParams()
	par.LossRate = 0.5
	par.Retries = 0 // fire-and-forget: measure the raw loss coin
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 0})
	eng, med := setup(mob, par)
	n := 0
	med.Attach(1, func(NodeID, any, int) { n++ })
	for i := 0; i < 1000; i++ {
		med.Unicast(0, 1, "x", 64)
	}
	eng.Run()
	if n < 350 || n > 650 {
		t.Fatalf("with 50%% loss, %d/1000 delivered", n)
	}
}

func TestMobilityBreaksLinkMidFlight(t *testing.T) {
	// Node 1 starts in range but the delivery check happens at arrival
	// time; with a long transmission and a fast node, the link can break.
	par := DefaultParams()
	par.Bitrate = 1000 // 8 bits/ms -> 512 B takes ~4 s
	par.MACDelayMean = 0
	eng := sim.NewEngine()
	mob := mobility.NewRandomWaypoint(field, 2, 200, nil, rng.New(42))
	med := MustNew(eng, mob, par, rng.New(1))
	// Count drops over several sends; at 200 m/s the receiver will often
	// be elsewhere 4 seconds later.
	med.Attach(1, func(NodeID, any, int) {})
	for i := 0; i < 20; i++ {
		med.Unicast(0, 1, "x", 512)
	}
	eng.Run()
	c := med.Counters()
	if c.DroppedRange == 0 {
		t.Skip("randomly stayed in range; acceptable but rare")
	}
}

func TestNeighborsRange(t *testing.T) {
	mob := newFixed(
		geo.Point{X: 500, Y: 500},
		geo.Point{X: 600, Y: 500}, // 100 m
		geo.Point{X: 500, Y: 740}, // 240 m
		geo.Point{X: 500, Y: 760}, // 260 m
	)
	_, med := setup(mob, DefaultParams())
	nb := med.Neighbors(0)
	ids := map[NodeID]bool{}
	for _, n := range nb {
		ids[n.ID] = true
	}
	if !ids[1] || !ids[2] || ids[3] || ids[0] {
		t.Fatalf("neighbors = %v", nb)
	}
}

func TestNeighborStaleness(t *testing.T) {
	// Positions in the neighbor table come from the last hello tick, not
	// the current instant.
	par := DefaultParams()
	par.HelloInterval = 10
	eng := sim.NewEngine()
	mob := mobility.NewRandomWaypoint(field, 5, 5, nil, rng.New(2))
	med := MustNew(eng, mob, par, rng.New(3))
	eng.Schedule(14, func() {
		nb := med.Neighbors(0)
		for _, n := range nb {
			// Advertised position must match position at t=10 (the
			// last beacon), not t=14.
			want := mob.Position(int(n.ID), 10)
			if n.Pos != want {
				t.Errorf("neighbor %d advertised %v, want beacon-time %v",
					n.ID, n.Pos, want)
			}
		}
	})
	eng.Run()
}

// movingModel moves each node linearly from a start point, for tests that
// need positions to change between beacon ticks.
type movingModel struct {
	start []geo.Point
	vel   []geo.Point
}

func (m *movingModel) Position(id int, t float64) geo.Point {
	return geo.Point{
		X: m.start[id].X + m.vel[id].X*t,
		Y: m.start[id].Y + m.vel[id].Y*t,
	}
}
func (m *movingModel) N() int          { return len(m.start) }
func (m *movingModel) Field() geo.Rect { return field }

// MaxSpeed implements mobility.Model: the fastest node's |vel|.
func (m *movingModel) MaxSpeed() float64 {
	v := 0.0
	for _, d := range m.vel {
		v = math.Max(v, geo.Point{}.Dist(d))
	}
	return v
}

// TestNeighborsExactBeaconInstant regresses the helloTime tick-boundary bug:
// with an awkward HelloInterval like 0.3 s, querying Neighbors at the exact
// beacon instant float64(k)*interval used to land on tick k-1 whenever
// fl(fl(k*h)/fl(h)) rounds below k — at h=0.3 the first such tick is k=31,
// where int(now/h) yields 30 — serving positions a whole beacon stale. The
// query at t = 31*0.3 must see tick-31 positions: node 2 drifts out of radio
// range between tick 30 (t=9.0, 248.5 m) and tick 31 (t=9.3, 253.45 m), so
// its membership tells the ticks apart.
func TestNeighborsExactBeaconInstant(t *testing.T) {
	par := DefaultParams()
	par.HelloInterval = 0.3
	h := par.HelloInterval
	mob := &movingModel{
		start: []geo.Point{{X: 500, Y: 500}, {X: 600, Y: 500}, {X: 500, Y: 600}},
		vel:   []geo.Point{{}, {X: 10, Y: 0}, {X: 0, Y: 16.5}},
	}
	eng := sim.NewEngine()
	med := MustNew(eng, mob, par, rng.New(3))
	at := float64(31) * h // runtime arithmetic: int(at/h) == 30, not 31
	eng.At(at, func() {
		nb := med.Neighbors(0)
		ids := map[NodeID]geo.Point{}
		for _, n := range nb {
			ids[n.ID] = n.Pos
		}
		if _, in := ids[2]; in {
			t.Errorf("node 2 still a neighbor at t=%v: beacon tick served stale (tick-30) positions", at)
		}
		pos, in := ids[1]
		if !in {
			t.Fatalf("node 1 missing from neighbors at t=%v", at)
		}
		// The query instant IS beacon tick 31, so the advertised position
		// must be the position at exactly this instant — not tick 30's.
		if want := mob.Position(1, at); pos != want {
			t.Errorf("node 1 advertised %v, want tick-31 position %v", pos, want)
		}
	})
	eng.Run()
}

// TestNodesWithin holds NodesWithinInto and BeaconPosition to the hello
// snapshot: node 3 leaves the zone and node 4 enters it between beacons,
// so until the next beacon each is placed where it last beaconed, on the
// other side of the edge from its exact position. BeaconDrift bounds how
// far each has moved since.
func TestNodesWithin(t *testing.T) {
	mob := &movingModel{
		start: []geo.Point{{X: 100, Y: 100}, {X: 200, Y: 200}, {X: 900, Y: 900}, {X: 490, Y: 250}, {X: 510, Y: 300}},
		vel:   []geo.Point{{}, {}, {}, {X: 20}, {X: -20}},
	}
	eng, med := setup(mob, DefaultParams())
	zone := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 500, Y: 500}}
	check := func(at float64, want []NodeID) {
		eng.At(at, func() {
			if in := med.NodesWithinInto(zone, []NodeID{7, 7, 7}); !slices.Equal(in, want) {
				t.Errorf("t=%v: NodesWithinInto = %v, want %v", at, in, want)
			}
			beacon := float64(med.helloTick()) * med.Params().HelloInterval
			for id := range mob.start {
				if got, want := med.BeaconPosition(NodeID(id)), mob.Position(id, beacon); got != want {
					t.Errorf("t=%v: BeaconPosition(%d) = %v, want %v", at, id, got, want)
				}
				if moved := med.PositionNow(NodeID(id)).Dist(med.BeaconPosition(NodeID(id))); moved > med.BeaconDrift() {
					t.Errorf("t=%v: node %d moved %v from its beacon, BeaconDrift %v", at, id, moved, med.BeaconDrift())
				}
			}
			if got, want := med.BeaconDrift(), mob.MaxSpeed()*(at-beacon); got != want {
				t.Errorf("t=%v: BeaconDrift = %v, want %v", at, got, want)
			}
		})
	}
	check(0, []NodeID{0, 1, 3})
	check(0.9, []NodeID{0, 1, 3})
	check(1, []NodeID{0, 1, 4})
	eng.At(0.9, func() {
		if zone.Contains(med.PositionNow(3)) || !zone.Contains(med.PositionNow(4)) {
			t.Fatalf("nodes 3 and 4 at %v and %v: they must have crossed the edge", med.PositionNow(3), med.PositionNow(4))
		}
	})
	eng.Run()
}

func TestInvalidParamsError(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, newFixed(geo.Point{}), Params{}, rng.New(1)); err == nil {
		t.Fatal("zero range should be an error")
	}
	nan := math.NaN()
	for name, edit := range map[string]func(*Params){
		"Range":         func(p *Params) { p.Range = nan },
		"Bitrate":       func(p *Params) { p.Bitrate = nan },
		"HelloInterval": func(p *Params) { p.HelloInterval = nan },
	} {
		par := DefaultParams()
		edit(&par)
		if _, err := New(eng, newFixed(geo.Point{}), par, rng.New(1)); err == nil {
			t.Errorf("NaN %s should be an error", name)
		}
	}
}

func TestUnattachedHandlerDropsSilently(t *testing.T) {
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 0})
	eng, med := setup(mob, DefaultParams())
	med.Unicast(0, 1, "x", 64)
	eng.Run() // must not panic
	if med.Counters().Delivered != 1 {
		t.Fatal("delivery should still be counted")
	}
}

func TestPositionNow(t *testing.T) {
	mob := newFixed(geo.Point{X: 7, Y: 9})
	_, med := setup(mob, DefaultParams())
	if med.PositionNow(0) != (geo.Point{X: 7, Y: 9}) {
		t.Fatal("PositionNow wrong")
	}
}

func TestCompromisedNodeSinksFrames(t *testing.T) {
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 0}, geo.Point{X: 200, Y: 0})
	eng, med := setup(mob, DefaultParams())
	got := 0
	med.Attach(1, func(NodeID, any, int) { got++ })
	med.Attach(2, func(NodeID, any, int) { got++ })
	med.Compromise(0)
	if !med.Compromised(0) {
		t.Fatal("Compromised not reported")
	}
	med.Unicast(0, 1, "x", 64)
	med.Broadcast(0, "y", 64)
	eng.Run()
	if got != 0 {
		t.Fatalf("compromised node transmitted %d frames", got)
	}
	if med.Counters().DroppedCompromised != 2 {
		t.Fatalf("counters = %+v", med.Counters())
	}
	// Restored node transmits again.
	delete(med.compromised, 0)
	med.Unicast(0, 1, "x", 64)
	eng.Run()
	if got != 1 {
		t.Fatal("restored node still sinking")
	}
}

func TestCompromisedStillReceives(t *testing.T) {
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 0})
	eng, med := setup(mob, DefaultParams())
	got := 0
	med.Attach(1, func(NodeID, any, int) { got++ })
	med.Compromise(1)
	med.Unicast(0, 1, "x", 64)
	eng.Run()
	if got != 1 {
		t.Fatal("compromised node should still receive (it sinks, not deafens)")
	}
}

func TestTxRxByteCounters(t *testing.T) {
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 0}, geo.Point{X: 150, Y: 0})
	eng, med := setup(mob, DefaultParams())
	for i := 1; i <= 2; i++ {
		med.Attach(NodeID(i), func(NodeID, any, int) {})
	}
	med.Unicast(0, 1, "x", 100) // tx 100 + 14 ACK, rx 100 + 14 ACK
	med.Broadcast(0, "y", 50)   // tx 50, rx 2*50
	eng.Run()
	// ACK bytes are charged to the same counters as data, so energy
	// accounting sees the ARQ's cost.
	c := med.Counters()
	ack := uint64(DefaultParams().AckSize)
	if c.TxBytes != 150+ack {
		t.Fatalf("TxBytes = %d", c.TxBytes)
	}
	if c.RxBytes != 200+ack {
		t.Fatalf("RxBytes = %d", c.RxBytes)
	}
	if c.AcksSent != 1 || c.AcksLost != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// gridEdgeModel puts nodes where the beacon grid's bucketing is most
// delicate: exactly on cell boundaries (multiples of Range), on the
// field's Max edges and corner, and outside Field() on every side, some
// static and some drifting across those lines between hello ticks.
func gridEdgeModel() *movingModel {
	m := &movingModel{}
	add := func(x, y, vx, vy float64) {
		m.start = append(m.start, geo.Point{X: x, Y: y})
		m.vel = append(m.vel, geo.Point{X: vx, Y: vy})
	}
	for _, x := range []float64{0, 250, 500, 750, 1000} {
		for _, y := range []float64{0, 250, 500, 750, 1000} {
			add(x, y, 0, 0)
			add(x, math.Nextafter(y, 2000), 0, 0)
			add(math.Nextafter(x, -1), y+125, 0, 0)
		}
	}
	for i := 0; i < 10; i++ {
		f := float64(i)
		add(1000, 100*f, 0, 0)     // on the Max.X edge
		add(90*f, 1000, 0, 0)      // on the Max.Y edge
		add(-30-f, 100*f, 0, 0)    // left of the field
		add(1020+f, 100*f+7, 0, 0) // right of it
		add(100*f+3, -45, 0, 0)    // below it
		add(100*f+11, 1200, 0, 0)  // above it
		add(990, 100*f, 2, 0)      // drifting out across Max.X
		add(100*f, 10, 0, -2)      // drifting out across Min.Y
		add(-60, 100*f+50, 15, 0)  // drifting in from outside
		add(240+f, 760-f, 1.5, -1) // across cell boundaries
	}
	return m
}

// TestNeighborsGridMatchesBruteForce holds NeighborsInto to neighborsRef,
// order included, on a moving field, on nodes placed on cell boundaries,
// on the field's Max edges and outside Field(), and on the tight ring,
// whose nodes on the range circle make the scan's in-band pass run. Every
// node's first query in a tick scans the grid; its second, in another
// order, copies the memoised table into dst[:0].
func TestNeighborsGridMatchesBruteForce(t *testing.T) {
	tight, undecided := tightRing(), 0
	band := geo.BandOf(DefaultParams().Range)
	for _, p := range tight.pos[1:] {
		if _, sure := band.Sure(tight.pos[0].Dist2(p)); !sure {
			undecided++
		}
	}
	if undecided == 0 {
		t.Fatal("tight ring: every node's squared distance decides, the in-band pass is untested")
	}
	for _, mc := range []struct {
		name string
		mob  mobility.Model
	}{
		{"rwp", mobility.NewRandomWaypoint(field, 150, 3, nil, rng.New(77))},
		{"edges", gridEdgeModel()},
		{"tight", tight},
	} {
		t.Run(mc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			med := MustNew(eng, mc.mob, DefaultParams(), rng.New(78))
			shuffle := rng.New(79)
			var dst []Neighbor
			check := func() {
				beacons := beaconPositions(med, mc.mob)
				for _, id := range shuffle.Perm(mc.mob.N()) {
					checkNeighbors(t, med, beacons, NodeID(id), nil)
				}
				for _, id := range shuffle.Perm(mc.mob.N()) {
					dst = checkNeighbors(t, med, beacons, NodeID(id), append(dst[:0], Neighbor{ID: -1}, Neighbor{ID: 7, Pos: geo.Point{X: 1, Y: 2}}))
				}
			}
			check()
			if mc.mob.MaxSpeed() == 0 {
				return // a static field's tables are the same at every tick
			}
			for _, until := range []float64{7.5, 8, 8.9, 13, 21.4} { // crosses several hello ticks
				eng.RunUntil(until)
				check()
			}
		})
	}
}

// neighborsRef is node id's neighbor table at the current beacon found
// without the grid scan: every other node whose beacon lies within Range
// of id's by Dist, with that beacon, ordered by the snapshot's grid
// column, then its grid row, then id. The order is a contract: routing
// draws, permutes and breaks ties in table order. beacons holds every
// node's position at the beacon instant, taken from the model.
func neighborsRef(med *Medium, beacons []geo.Point, id NodeID) []Neighbor {
	b := med.beaconsNow()
	var want []Neighbor
	for other, p := range beacons {
		if other != int(id) && beacons[id].Dist(p) <= med.par.Range {
			want = append(want, Neighbor{ID: NodeID(other), Pos: p})
		}
	}
	slices.SortFunc(want, func(x, y Neighbor) int {
		cx, cy := int(b.cellOf[x.ID]), int(b.cellOf[y.ID])
		return cmp.Or(cmp.Compare(cx/b.rows, cy/b.rows), cmp.Compare(cx%b.rows, cy%b.rows), cmp.Compare(x.ID, y.ID))
	})
	return want
}

// beaconPositions asks the model for every node's position at the current
// beacon instant.
func beaconPositions(med *Medium, mob mobility.Model) []geo.Point {
	at := float64(med.helloTick()) * med.par.HelloInterval
	pos := make([]geo.Point, mob.N())
	for id := range pos {
		pos[id] = mob.Position(id, at)
	}
	return pos
}

// checkNeighbors requires NeighborsInto(id, dst) to return neighborsRef's
// table exactly, order included, and returns it for reuse as dst.
func checkNeighbors(t testing.TB, med *Medium, beacons []geo.Point, id NodeID, dst []Neighbor) []Neighbor {
	t.Helper()
	got := med.NeighborsInto(id, dst)
	if want := neighborsRef(med, beacons, id); !slices.Equal(got, want) {
		t.Fatalf("t=%v node %d at %v: NeighborsInto = %v, want %v", med.eng.Now(), id, beacons[id], got, want)
	}
	return got
}

// checkNodesWithin requires NodesWithinInto to return exactly the nodes a
// pass over every node's position at the current beacon finds in zone, in
// ascending id order, written over dst's old contents.
func checkNodesWithin(t testing.TB, med *Medium, mob mobility.Model, zone geo.Rect) {
	t.Helper()
	beacon := float64(med.helloTick()) * med.par.HelloInterval
	var want []NodeID
	for id := 0; id < mob.N(); id++ {
		if zone.Contains(mob.Position(id, beacon)) {
			want = append(want, NodeID(id))
		}
	}
	if got := med.NodesWithinInto(zone, []NodeID{7, -1, 7}); !slices.Equal(got, want) {
		t.Fatalf("t=%v zone %v: NodesWithinInto = %v, a pass over every node finds %v", med.eng.Now(), zone, got, want)
	}
}

// TestNodesWithinGridMatchesBruteForce holds the grid-backed
// NodesWithinInto to a pass over every node, order included, on a moving
// 200-node field and on nodes placed on cell boundaries, on the field's
// Max edges and outside Field(), across several hello ticks. The zones
// straddle cells, lie on cell boundaries, lie partly or wholly outside the
// field, shrink to a point (on a node, too), are inverted, and have NaN or
// infinite bounds.
func TestNodesWithinGridMatchesBruteForce(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rect := func(x0, y0, x1, y1 float64) geo.Rect {
		return geo.Rect{Min: geo.Point{X: x0, Y: y0}, Max: geo.Point{X: x1, Y: y1}}
	}
	zones := []geo.Rect{
		field,
		rect(240, 240, 510, 760), rect(0, 0, 125, 250), rect(875, 750, 1000, 1000), // straddling cells
		rect(250, 250, 500, 500), rect(250, 0, 250, 1000), // on cell boundaries
		rect(-100, 900, 300, 1300), rect(990, -50, 1100, 40), // partly outside
		rect(-500, -500, -100, -100), rect(1100, 0, 1500, 1000), rect(-60, 0, -59, 1000), // wholly outside
		rect(250, 250, 250, 250), rect(1000, 500, 1000, 500), rect(600, 600, 600, 600), // points
		rect(600, 600, 400, 400), rect(400, 600, 600, 400), rect(600, 400, 400, 600), // inverted
		rect(100, 900, 900, 100), rect(900, 100, 100, 900), rect(1e9, 1e9, -1e9, -1e9), // inverted across cells
		rect(nan, 0, 1000, 1000), rect(0, nan, 1000, 1000), rect(0, 0, nan, 1000), rect(0, 0, 1000, nan),
		rect(-inf, -inf, inf, inf), rect(-inf, 0, 500, inf), rect(inf, inf, inf, inf),
		rect(-inf, -inf, -inf, -inf), rect(inf, 0, -inf, 1000),
	}
	for _, mc := range []struct {
		name string
		mob  mobility.Model
	}{
		{"rwp", mobility.NewRandomWaypoint(field, 200, 3, nil, rng.New(81))},
		{"edges", gridEdgeModel()},
	} {
		t.Run(mc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			med := MustNew(eng, mc.mob, DefaultParams(), rng.New(82))
			src := rng.New(83)
			check := func() {
				for _, z := range zones {
					checkNodesWithin(t, med, mc.mob, z)
				}
				for i := 0; i < 300; i++ {
					lo := geo.Point{X: src.Uniform(-300, 1300), Y: src.Uniform(-300, 1300)}
					checkNodesWithin(t, med, mc.mob, geo.Rect{Min: lo, Max: geo.Point{X: lo.X + src.Uniform(0, 600), Y: lo.Y + src.Uniform(0, 600)}})
				}
				for id := 0; id < mc.mob.N(); id++ {
					p := med.BeaconPosition(NodeID(id))
					checkNodesWithin(t, med, mc.mob, geo.Rect{Min: p, Max: p})
				}
			}
			check()
			for _, until := range []float64{0.5, 1, 7.5, 13, 21.4} { // crosses several hello ticks
				eng.RunUntil(until)
				check()
			}
		})
	}
}

// FuzzNodesWithin holds NodesWithinInto to a pass over every node on
// random fields and rectangles: the seed places 1 to 256 nodes in and
// around the 1000 m field, a quarter of them at an x that is a multiple of
// the range (a cell boundary where cells are range-sized) and a quarter on
// the field's Max.X edge; the radio range sets the grid's cell side (wider
// cells above 256 cells an axis, one cell when it is infinite); the
// rectangle's bounds are arbitrary, so it may be inverted, a point, or
// have NaN or infinite bounds.
func FuzzNodesWithin(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(int64(1), uint8(199), 250.0, 100.0, 200.0, 600.0, 450.0)
	f.Add(int64(2), uint8(30), 1.0, -50.0, -50.0, 1200.0, 1200.0)
	f.Add(int64(3), uint8(255), 333.0, 500.0, 500.0, 500.0, 500.0)
	f.Add(int64(4), uint8(10), 250.0, 700.0, 0.0, 300.0, 1000.0)
	f.Add(int64(5), uint8(99), inf, -inf, nan, inf, 3.0)
	f.Add(int64(6), uint8(64), 1e300, -1e300, -1e300, 1e-300, 1e300)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, rangeM, x0, y0, x1, y1 float64) {
		par := DefaultParams()
		par.Range = rangeM
		src := rng.New(seed)
		pos := make([]geo.Point, 1+int(n))
		for i := range pos {
			p := geo.Point{X: src.Uniform(-200, 1200), Y: src.Uniform(-200, 1200)}
			switch i % 4 {
			case 1:
				p.X = math.Floor(p.X/rangeM) * rangeM
			case 2:
				p.X = field.Max.X
				p.Y = math.Min(p.Y, field.Max.Y)
			}
			pos[i] = p
		}
		mob := newFixed(pos...)
		med, err := New(sim.NewEngine(), mob, par, rng.New(1))
		if err != nil {
			t.Skip("medium.New refuses the range")
		}
		checkNodesWithin(t, med, mob, geo.Rect{Min: geo.Point{X: x0, Y: y0}, Max: geo.Point{X: x1, Y: y1}})
	})
}

// FuzzNeighbors holds NeighborsInto to neighborsRef, order included, for
// every node of random static fields: the seed places 1 to 256 nodes in
// and around the 1000 m field, a quarter of them at an x that is a
// multiple of the range (a cell boundary where cells are range-sized) and
// a quarter on the field's Max.X edge; the radio range is arbitrary, so
// the grid's cells may be tiny, wider than the range (above 256 cells an
// axis) or one infinite cell.
func FuzzNeighbors(f *testing.F) {
	f.Add(int64(1), uint8(199), 250.0)
	f.Add(int64(2), uint8(30), 1.0)
	f.Add(int64(3), uint8(255), 333.0)
	f.Add(int64(4), uint8(99), math.Inf(1))
	f.Add(int64(5), uint8(64), 1e-300)
	f.Add(int64(6), uint8(128), 1e300)
	f.Add(int64(7), uint8(0), 250.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, rangeM float64) {
		par := DefaultParams()
		par.Range = rangeM
		src := rng.New(seed)
		pos := make([]geo.Point, 1+int(n))
		for i := range pos {
			p := geo.Point{X: src.Uniform(-200, 1200), Y: src.Uniform(-200, 1200)}
			switch i % 4 {
			case 1:
				p.X = math.Floor(p.X/rangeM) * rangeM
			case 2:
				p.X = field.Max.X
				p.Y = math.Min(p.Y, field.Max.Y)
			}
			pos[i] = p
		}
		mob := newFixed(pos...)
		med, err := New(sim.NewEngine(), mob, par, rng.New(1))
		if err != nil {
			t.Skip("medium.New refuses the range")
		}
		var dst []Neighbor
		for id := range pos {
			dst = checkNeighbors(t, med, pos, NodeID(id), dst)
		}
	})
}

// BenchmarkNeighborsGrid times the beacon grid on the paper-default field:
// 200 random-waypoint nodes at 2 m/s over 1000 m x 1000 m, 250 m range.
// Each op advances the clock one hello interval, so the snapshot is
// rebuilt from positions that moved, and queries all 200 nodes once, so
// every query scans the grid (a query repeated within the tick would only
// copy its memoised table). The field moves so that no two ticks repeat
// the same candidate outcomes. The ns/scan metric divides the time, the
// rebuilds' share included, by the scans.
func BenchmarkNeighborsGrid(b *testing.B) {
	const n = 200
	eng := sim.NewEngine()
	mob := mobility.NewRandomWaypoint(field, n, 2, nil, rng.New(1))
	med := MustNew(eng, mob, DefaultParams(), rng.New(2))
	var dst []Neighbor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(float64(i+1) * med.par.HelloInterval)
		for id := 0; id < n; id++ {
			dst = med.NeighborsInto(NodeID(id), dst)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/scan")
}

// BenchmarkBroadcastSweep times one broadcast delivery sweep per op on the
// paper-default field: 200 random-waypoint nodes at 2 m/s over 1000 m x
// 1000 m, 250 m range. Each op is a Broadcast from the next node plus the
// engine step that runs its delivery; the clock advances by the frame's
// air time, so every sweep evaluates positions at a fresh instant. The
// ns/receiver metric divides the time by the receptions delivered.
func BenchmarkBroadcastSweep(b *testing.B) {
	const n = 200
	eng := sim.NewEngine()
	mob := mobility.NewRandomWaypoint(field, n, 2, nil, rng.New(1))
	med := MustNew(eng, mob, DefaultParams(), rng.New(2))
	receptions := 0
	for id := 0; id < n; id++ {
		med.Attach(NodeID(id), func(NodeID, any, int) { receptions++ })
	}
	payload := any(&struct{}{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med.Broadcast(NodeID(i%n), payload, 512)
		eng.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(receptions, 1)), "ns/receiver")
}

func TestTxByNode(t *testing.T) {
	mob := newFixed(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 0})
	eng, med := setup(mob, DefaultParams())
	med.Attach(1, func(NodeID, any, int) {})
	med.Unicast(0, 1, "a", 10)
	med.Unicast(0, 1, "b", 10)
	med.Broadcast(1, "c", 10)
	eng.Run()
	// Node 1's two ACK transmissions count toward its load: the ARQ's
	// cost lands on the replier, as in 802.11.
	tx := med.TxByNode()
	if tx[0] != 2 || tx[1] != 3 {
		t.Fatalf("TxByNode = %v", tx)
	}
	// Returned slice is a copy.
	tx[0] = 99
	if med.TxByNode()[0] != 2 {
		t.Fatal("TxByNode leaked internal slice")
	}
	// Compromised transmissions don't count (they never leave the node).
	med.Compromise(0)
	med.Unicast(0, 1, "d", 10)
	eng.Run()
	if med.TxByNode()[0] != 2 {
		t.Fatal("compromised tx counted")
	}
}
