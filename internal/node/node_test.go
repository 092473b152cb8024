package node

import (
	"math"
	"testing"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/mobility"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

var field = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

func newTestNetwork(t *testing.T, n int, rotate bool) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	src := rng.New(99)
	mob := mobility.NewRandomWaypoint(field, n, 2, nil, src)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	suite := crypt.NewFastSuite(src)
	net := NewNetwork(eng, med, suite, crypt.DefaultCostModel(), src)
	if rotate {
		net.RotatePseudonyms()
	}
	return eng, net
}

func TestNetworkSetup(t *testing.T) {
	_, net := newTestNetwork(t, 10, true)
	if net.N() != 10 {
		t.Fatalf("N = %d", net.N())
	}
	if net.Field() != field {
		t.Fatal("field wrong")
	}
	seenMAC := map[uint64]bool{}
	seenPseud := map[crypt.Pseudonym]bool{}
	for _, nd := range net.Nodes {
		if nd.Pub == nil || nd.Priv == nil {
			t.Fatal("node missing keys")
		}
		if nd.Pub.Owner() != int(nd.ID) {
			t.Fatal("key owner mismatch")
		}
		if seenMAC[nd.MAC] {
			t.Fatal("duplicate MAC")
		}
		seenMAC[nd.MAC] = true
		if nd.Pseudonym.IsZero() {
			t.Fatal("node has no pseudonym")
		}
		if seenPseud[nd.Pseudonym] {
			t.Fatal("pseudonym collision at startup")
		}
		seenPseud[nd.Pseudonym] = true
	}
}

func TestPseudonymRotation(t *testing.T) {
	eng, net := newTestNetwork(t, 5, true)
	initial := make([]crypt.Pseudonym, 5)
	for i, nd := range net.Nodes {
		initial[i] = nd.Pseudonym
	}
	eng.RunUntil(35)
	for i, nd := range net.Nodes {
		if nd.Pseudonym == initial[i] {
			t.Fatalf("node %d pseudonym did not rotate in 35 s", i)
		}
		// 1 initial + at least 3 rotations in 35 s with lifetime 10.
		if nd.PseudonymUpdates < 4 {
			t.Fatalf("node %d has only %d updates", i, nd.PseudonymUpdates)
		}
	}
}

func TestRotationDisabled(t *testing.T) {
	eng, net := newTestNetwork(t, 3, false)
	p0 := net.Nodes[0].Pseudonym
	eng.RunUntil(100)
	if net.Nodes[0].Pseudonym != p0 {
		t.Fatal("pseudonym rotated without RotatePseudonyms")
	}
	if net.Nodes[0].PseudonymUpdates != 1 {
		t.Fatal("update count wrong")
	}
}

func TestRotationsDesynchronized(t *testing.T) {
	// Rotations should not all fire at the same instant; check the first
	// rotation times differ across nodes by inspecting update counts at
	// a mid-lifetime point.
	eng, net := newTestNetwork(t, 20, true)
	eng.RunUntil(5)
	rotated := 0
	for _, nd := range net.Nodes {
		if nd.PseudonymUpdates > 1 {
			rotated++
		}
	}
	if rotated == 0 || rotated == 20 {
		t.Fatalf("rotations synchronized: %d/20 rotated at t=5", rotated)
	}
}

func TestPositionAccessors(t *testing.T) {
	eng, net := newTestNetwork(t, 3, true)
	nd := net.Nodes[1]
	if !field.Contains(nd.Position()) {
		t.Fatal("position outside field")
	}
	if nd.Position() != nd.PositionAt(eng.Now()) {
		t.Fatal("Position and PositionAt(now) disagree")
	}
}

func TestNeighborsAccessor(t *testing.T) {
	_, net := newTestNetwork(t, 50, true)
	nb := net.Nodes[0].Neighbors()
	for _, n := range nb {
		if n.ID == net.Nodes[0].ID {
			t.Fatal("node neighbor of itself")
		}
	}
}

func TestNodeLookup(t *testing.T) {
	_, net := newTestNetwork(t, 4, true)
	if net.Node(2) != net.Nodes[2] {
		t.Fatal("Node lookup wrong")
	}
	if net.Node(2).net != net {
		t.Fatal("Network backref wrong")
	}
}

func TestCryptoOpCounters(t *testing.T) {
	_, net := newTestNetwork(t, 2, true)
	net.NoteSym(3)
	net.NoteSym(1)
	net.NotePub(2)
	if net.Ops.Sym != 4 {
		t.Fatalf("Sym ops = %d, want 4", net.Ops.Sym)
	}
	if net.Ops.Pub != 2 {
		t.Fatalf("Pub ops = %d, want 2", net.Ops.Pub)
	}
}

// rotationEvent is one observed pseudonym rotation.
type rotationEvent struct {
	at        sim.Time
	id        medium.NodeID
	pseudonym crypt.Pseudonym
}

// stepRotations executes the engine's events up to horizon and returns
// every rotation in the order it happened. Only rotations are scheduled,
// so each event rotates exactly one node; check runs after every event.
func stepRotations(t *testing.T, eng *sim.Engine, net *Network, horizon sim.Time, check func()) []rotationEvent {
	t.Helper()
	updates := make([]int, net.N())
	for i, nd := range net.Nodes {
		updates[i] = nd.PseudonymUpdates
	}
	var got []rotationEvent
	for eng.Now() < horizon && eng.Step() {
		check()
		rotated := 0
		for i, nd := range net.Nodes {
			if nd.PseudonymUpdates != updates[i] {
				updates[i] = nd.PseudonymUpdates
				rotated++
				got = append(got, rotationEvent{at: eng.Now(), id: nd.ID, pseudonym: nd.Pseudonym})
			}
		}
		if rotated != 1 {
			t.Fatalf("event at t=%v rotated %d nodes, want 1", eng.Now(), rotated)
		}
	}
	return got
}

// referenceRotation arms one Engine.Ticker per node, in node order, each
// first firing at start(node): the per-node schedule the network's one
// rotation event must reproduce.
func referenceRotation(eng *sim.Engine, net *Network, start func(*Node) sim.Time) {
	for _, nd := range net.Nodes {
		nd := nd
		eng.Ticker(start(nd), PseudonymLifetime, func(sim.Time) { nd.rotatePseudonym() })
	}
}

// TestRotationMatchesPerNodeTickers: the network's one rotation event
// rotates the nodes at the instants, in the order and to the pseudonyms
// that one Engine.Ticker per node, each started from a draw on that node's
// stream in node order, produces, while keeping one event pending, not N.
func TestRotationMatchesPerNodeTickers(t *testing.T) {
	const n = 50
	const horizon = 3.5 * PseudonymLifetime

	refEng, refNet := newTestNetwork(t, n, false)
	referenceRotation(refEng, refNet, func(nd *Node) sim.Time { return nd.rnd.Uniform(0, PseudonymLifetime) })
	want := stepRotations(t, refEng, refNet, horizon, func() {})

	eng, net := newTestNetwork(t, n, true)
	if eng.Pending() != 1 {
		t.Fatalf("RotatePseudonyms left %d events pending, want 1", eng.Pending())
	}
	got := stepRotations(t, eng, net, horizon, func() {
		if eng.Pending() != 1 {
			t.Fatalf("%d events pending at t=%v, want 1", eng.Pending(), eng.Now())
		}
	})

	if len(want) < 3*n {
		t.Fatalf("reference rotated %d times, want at least three lifetimes of %d nodes", len(want), n)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rotations, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// TestRotationTiesMatchPerNodeTickers: nodes whose instants meet rotate in
// the order per-node tickers would. Equal starts go in node order. Two
// distinct starts that adding one lifetime rounds to the same instant go
// in the order they first rotated, which for nodes 0 and 2 here is not
// their id order.
func TestRotationTiesMatchPerNodeTickers(t *testing.T) {
	a := 0.1
	b := math.Nextafter(a, 1)
	if a+PseudonymLifetime != b+PseudonymLifetime {
		t.Fatalf("%v and %v stay apart after one lifetime", a, b)
	}
	starts := []sim.Time{b, 5, a, 5, 5}
	start := func(nd *Node) sim.Time { return starts[nd.ID] }
	const horizon = 3.5 * PseudonymLifetime

	refEng, refNet := newTestNetwork(t, len(starts), false)
	referenceRotation(refEng, refNet, start)
	want := stepRotations(t, refEng, refNet, horizon, func() {})

	eng, net := newTestNetwork(t, len(starts), false)
	net.rotateFrom(start)
	got := stepRotations(t, eng, net, horizon, func() {})

	if len(got) != len(want) || len(want) < 3*len(starts) {
		t.Fatalf("%d rotations, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// Neighbors returns the node's (possibly stale) neighbor table.
func (n *Node) Neighbors() []medium.Neighbor { return n.net.Med.Neighbors(n.ID) }
