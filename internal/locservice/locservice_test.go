package locservice

import (
	"math"
	"testing"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/mobility"
	"alertmanet/internal/node"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

var field = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

func newNet(n int, speed float64, seed int64) (*sim.Engine, *node.Network) {
	eng := sim.NewEngine()
	src := rng.New(seed)
	mob := mobility.NewRandomWaypoint(field, n, speed, nil, src)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	return eng, node.NewNetwork(eng, med, crypt.NewFastSuite(src),
		crypt.ZeroCostModel(), src)
}

func TestInitialRegistration(t *testing.T) {
	_, net := newNet(20, 2, 1)
	s := New(net, true)
	for i, nd := range net.Nodes {
		e := s.Lookup(medium.NodeID(i))
		if e.Pos != nd.Position() {
			t.Fatalf("node %d initial position wrong", i)
		}
		if e.Pub.Owner() != i {
			t.Fatalf("node %d pub key wrong", i)
		}
	}
}

func TestDefaultServerCountIsSqrtN(t *testing.T) {
	_, net := newNet(100, 2, 2)
	s := New(net, true)
	if s.numServers != 10 {
		t.Fatalf("N_L = %d, want 10 for N=100", s.numServers)
	}
	_, net2 := newNet(200, 2, 3)
	s2 := New(net2, true)
	if s2.numServers != 15 { // ceil(sqrt(200)) = 15
		t.Fatalf("N_L = %d, want 15 for N=200", s2.numServers)
	}
}

func TestUpdatesRefreshPositions(t *testing.T) {
	eng, net := newNet(10, 5, 4)
	s := New(net, true)
	eng.RunUntil(10)
	for i, nd := range net.Nodes {
		e := s.Lookup(medium.NodeID(i))
		// Last update tick at t=10; entry must match position at that time.
		if e.Pos.Dist(nd.PositionAt(10)) > 1e-9 {
			t.Fatalf("node %d stale after updates: %v vs %v", i, e.Pos, nd.PositionAt(10))
		}
		if e.UpdatedAt != 10 {
			t.Fatalf("UpdatedAt = %v", e.UpdatedAt)
		}
	}
}

func TestUpdatesDisabledFreezesPositions(t *testing.T) {
	eng, net := newNet(10, 5, 5)
	s := New(net, false)
	initial := make([]geo.Point, 10)
	for i := range initial {
		e := s.Lookup(medium.NodeID(i))
		initial[i] = e.Pos
	}
	eng.RunUntil(50)
	moved := 0
	for i := range initial {
		e := s.Lookup(medium.NodeID(i))
		if e.Pos != initial[i] {
			t.Fatalf("node %d entry changed despite updates disabled", i)
		}
		if net.Nodes[i].Position().Dist(initial[i]) > 10 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("test vacuous: no node moved away from its frozen entry")
	}
}

func TestCountersMatchSection43Formulas(t *testing.T) {
	eng, net := newNet(100, 2, 8)
	s := New(net, true) // N_L = ceil(sqrt(100)) = 10
	const T = 20.0
	eng.RunUntil(T)
	c := s.Counters()
	f := 1 / 2.0
	wantUpdates := uint64(100 * f * T) // N*f*T
	if c.Updates != wantUpdates {
		t.Fatalf("Updates = %d, want %d", c.Updates, wantUpdates)
	}
	wantRepl := uint64(10 * 9 * f * T) // N_L*(N_L-1)*f*T
	if c.Replications != wantRepl {
		t.Fatalf("Replications = %d, want %d", c.Replications, wantRepl)
	}
}

func TestOverheadRatioSmall(t *testing.T) {
	_, net := newNet(200, 2, 9)
	s := New(net, true)
	// Section 4.3 requires f << F. With f = 0.5 updates/s and a
	// multimedia-style F = 10 msgs/node/s the overhead must be << 1.
	ratio := s.OverheadRatio(10)
	if ratio >= 0.2 {
		t.Fatalf("overhead ratio %v not << 1", ratio)
	}
	// And it shrinks as communication frequency grows.
	if s.OverheadRatio(100) >= ratio {
		t.Fatal("ratio should decrease with higher F")
	}
}

func TestOverheadRatioEdgeCases(t *testing.T) {
	_, net := newNet(10, 2, 10)
	s := New(net, true)
	if !math.IsInf(s.OverheadRatio(0), 1) {
		t.Fatal("F=0 should be +Inf")
	}
	s2 := New(net, false)
	if s2.OverheadRatio(1) != 0 {
		t.Fatal("updates disabled should have zero overhead")
	}
}

func TestLookupCountsQueries(t *testing.T) {
	_, net := newNet(5, 2, 11)
	s := New(net, true)
	before := s.Counters().Lookups
	s.Lookup(0)
	s.Lookup(1)
	if s.Counters().Lookups != before+2 {
		t.Fatal("lookup counter wrong")
	}
}
