package medium

import (
	"math"
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

func TestNodesWithin(t *testing.T) {
	mob := newFixed(
		geo.Point{X: 100, Y: 100},
		geo.Point{X: 200, Y: 200},
		geo.Point{X: 900, Y: 900},
	)
	_, med := setup(mob, DefaultParams())
	zone := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 500, Y: 500}}
	in := med.NodesWithin(zone)
	if len(in) != 2 {
		t.Fatalf("NodesWithin = %v", in)
	}
}

func TestInvalidParamsError(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, newFixed(geo.Point{}), Params{}, rng.New(1)); err == nil {
		t.Fatal("zero range should be an error")
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
	med.Restore(0)
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

func TestNeighborsGridMatchesBruteForce(t *testing.T) {
	// The grid-accelerated Neighbors must agree exactly with an O(N^2)
	// scan, including at cell boundaries.
	eng := sim.NewEngine()
	mob := mobility.NewRandomWaypoint(field, 150, 3, nil, rng.New(77))
	med := MustNew(eng, mob, DefaultParams(), rng.New(78))
	check := func() {
		tNow := float64(med.helloTick()) * med.par.HelloInterval
		for id := 0; id < 150; id++ {
			got := med.Neighbors(NodeID(id))
			gotSet := map[NodeID]geo.Point{}
			for _, nb := range got {
				gotSet[nb.ID] = nb.Pos
			}
			self := mob.Position(id, tNow)
			want := 0
			for other := 0; other < 150; other++ {
				if other == id {
					continue
				}
				p := mob.Position(other, tNow)
				if self.Dist(p) <= med.Params().Range {
					want++
					if gp, ok := gotSet[NodeID(other)]; !ok || gp != p {
						t.Fatalf("t=%v node %d: neighbor %d missing or wrong pos", tNow, id, other)
					}
				}
			}
			if want != len(got) {
				t.Fatalf("t=%v node %d: %d neighbors, want %d", tNow, id, len(got), want)
			}
		}
	}
	check()
	eng.RunUntil(7.5) // crosses several hello ticks
	check()
}

// BenchmarkNeighborsGrid measures the cached grid lookup at evaluation
// scale (one hello tick, 200 queries).
func BenchmarkNeighborsGrid(b *testing.B) {
	eng := sim.NewEngine()
	mob := mobility.NewStatic(field, 200, rng.New(1))
	med := MustNew(eng, mob, DefaultParams(), rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := 0; id < 200; id++ {
			_ = med.Neighbors(NodeID(id))
		}
	}
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
