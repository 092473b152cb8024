package gpsr

import (
	"testing"
	"testing/quick"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/mobility"
	"alertmanet/internal/node"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

var field = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

// fixedModel pins nodes for deterministic topologies.
type fixedModel struct{ pos []geo.Point }

func (f *fixedModel) Position(id int, _ float64) geo.Point { return f.pos[id] }
func (f *fixedModel) N() int                               { return len(f.pos) }
func (f *fixedModel) Field() geo.Rect                      { return field }
func (f *fixedModel) MaxSpeed() float64                    { return 0 }

func netFromModel(mob mobility.Model, seed int64) (*sim.Engine, *node.Network, *Router) {
	eng := sim.NewEngine()
	src := rng.New(seed)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	r := New(net)
	r.AttachAll()
	return eng, net, r
}

func lineTopology(n int, spacing float64) *fixedModel {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i) * spacing, Y: 500}
	}
	return &fixedModel{pos: pos}
}

func TestGreedyChainDelivery(t *testing.T) {
	// 5 nodes, 200 m apart (range 250): must hop the chain 0->1->2->3->4.
	eng, _, r := netFromModel(lineTopology(5, 200), 1)
	var out Outcome
	var at medium.NodeID
	var hops int
	pkt := &Packet{
		Dest:      geo.Point{X: 800, Y: 500},
		DeliverTo: 4,
		Size:      512,
		HopBudget: 10,
		OnOutcome: func(a medium.NodeID, p *Packet, o Outcome) {
			at, out, hops = a, o, p.Hops
		},
	}
	r.Send(0, pkt)
	eng.Run()
	if out != Delivered || at != 4 {
		t.Fatalf("outcome=%v at=%v", out, at)
	}
	if hops != 4 {
		t.Fatalf("hops = %d, want 4", hops)
	}
	if len(pkt.Path) != 5 || pkt.Path[0] != 0 || pkt.Path[4] != 4 {
		t.Fatalf("path = %v", pkt.Path)
	}
	c := r.Counters()
	if c.Delivered != 1 || c.TotalHops != 4 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestDeliverToSelf(t *testing.T) {
	eng, _, r := netFromModel(lineTopology(3, 200), 2)
	var out Outcome
	pkt := &Packet{
		Dest:      geo.Point{X: 0, Y: 500},
		DeliverTo: 0,
		HopBudget: 10,
		OnOutcome: func(_ medium.NodeID, _ *Packet, o Outcome) { out = o },
	}
	r.Send(0, pkt)
	eng.Run()
	if out != Delivered || pkt.Hops != 0 {
		t.Fatalf("out=%v hops=%d", out, pkt.Hops)
	}
}

func TestArrivedClosestMode(t *testing.T) {
	// Target position is past node 4; in closest-node mode the packet
	// must terminate at node 4 (ALERT's RF selection).
	eng, _, r := netFromModel(lineTopology(5, 200), 3)
	var out Outcome
	var at medium.NodeID
	pkt := &Packet{
		Dest:      geo.Point{X: 950, Y: 500},
		DeliverTo: NoDeliverTo,
		HopBudget: 10,
		OnOutcome: func(a medium.NodeID, _ *Packet, o Outcome) { at, out = a, o },
	}
	r.Send(0, pkt)
	eng.Run()
	if out != ArrivedClosest || at != 4 {
		t.Fatalf("out=%v at=%v", out, at)
	}
	if r.Counters().ArrivedClosest != 1 {
		t.Fatal("counter wrong")
	}
}

func TestArrivedClosestImmediate(t *testing.T) {
	// Origin already closest: zero hops.
	eng, _, r := netFromModel(lineTopology(3, 200), 4)
	var at medium.NodeID
	pkt := &Packet{
		Dest:      geo.Point{X: 420, Y: 500}, // closest to node 2 at x=400
		DeliverTo: NoDeliverTo,
		HopBudget: 10,
		OnOutcome: func(a medium.NodeID, _ *Packet, _ Outcome) { at = a },
	}
	r.Send(2, pkt)
	eng.Run()
	if at != 2 || pkt.Hops != 0 {
		t.Fatalf("at=%v hops=%d", at, pkt.Hops)
	}
}

func TestTTLExhaustion(t *testing.T) {
	eng, _, r := netFromModel(lineTopology(8, 200), 5)
	var out Outcome
	pkt := &Packet{
		Dest:      geo.Point{X: 1400, Y: 500},
		DeliverTo: 7,
		HopBudget: 3,
		OnOutcome: func(_ medium.NodeID, _ *Packet, o Outcome) { out = o },
	}
	r.Send(0, pkt)
	eng.Run()
	if out != DroppedTTL {
		t.Fatalf("out=%v, want dropped-ttl", out)
	}
	if pkt.Hops > 3 {
		t.Fatalf("hops %d exceeded budget", pkt.Hops)
	}
}

func TestPerimeterRecoveryAroundVoid(t *testing.T) {
	// A concave "C" topology: greedy from node 0 toward node 4 dead-ends
	// at the tip (node 1 is closest to dest among 0's neighbors, but the
	// direct path is void); perimeter mode must route around.
	//
	//   0(0,500) - 1(200,500)            4(600,500)
	//                \                    /
	//               2(200,300) - 3(450,300)
	pos := []geo.Point{
		{X: 0, Y: 500}, {X: 200, Y: 500}, {X: 200, Y: 300},
		{X: 450, Y: 300}, {X: 600, Y: 500},
	}
	eng, _, r := netFromModel(&fixedModel{pos: pos}, 6)
	var out Outcome
	pkt := &Packet{
		Dest:      pos[4],
		DeliverTo: 4,
		HopBudget: 10,
		OnOutcome: func(_ medium.NodeID, _ *Packet, o Outcome) { out = o },
	}
	r.Send(0, pkt)
	eng.Run()
	if out != Delivered {
		t.Fatalf("out=%v, want delivered via perimeter", out)
	}
	if r.Counters().PerimeterEntries == 0 {
		t.Fatal("expected a perimeter entry")
	}
}

func TestDisconnectedDrops(t *testing.T) {
	// Two islands far apart.
	pos := []geo.Point{
		{X: 0, Y: 0}, {X: 100, Y: 0},
		{X: 900, Y: 900}, {X: 1000, Y: 900},
	}
	eng, _, r := netFromModel(&fixedModel{pos: pos}, 7)
	var out Outcome
	fired := 0
	pkt := &Packet{
		Dest:      pos[3],
		DeliverTo: 3,
		HopBudget: 20,
		OnOutcome: func(_ medium.NodeID, _ *Packet, o Outcome) { out = o; fired++ },
	}
	r.Send(0, pkt)
	eng.Run()
	if out != DroppedDeadEnd && out != DroppedTTL {
		t.Fatalf("out=%v, want a drop", out)
	}
	if fired != 1 {
		t.Fatalf("OnOutcome fired %d times", fired)
	}
}

func TestIsolatedNodeDeadEnd(t *testing.T) {
	pos := []geo.Point{{X: 0, Y: 0}, {X: 900, Y: 900}}
	eng, _, r := netFromModel(&fixedModel{pos: pos}, 8)
	var out Outcome
	pkt := &Packet{
		Dest:      pos[1],
		DeliverTo: 1,
		HopBudget: 5,
		OnOutcome: func(_ medium.NodeID, _ *Packet, o Outcome) { out = o },
	}
	r.Send(0, pkt)
	eng.Run()
	if out != DroppedDeadEnd {
		t.Fatalf("out=%v, want dead-end (no neighbors at all)", out)
	}
}

func TestRandomNetworkDeliveryRate(t *testing.T) {
	// In a dense static 200-node network nearly every routing attempt
	// must succeed (Fig. 16a: delivery ~1 at 200 nodes).
	eng := sim.NewEngine()
	src := rng.New(9)
	mob := mobility.NewStatic(field, 200, src)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	r := New(net)
	r.AttachAll()
	delivered := 0
	const tries = 50
	for i := 0; i < tries; i++ {
		from := medium.NodeID(src.Intn(200))
		to := medium.NodeID(src.Intn(200))
		if from == to {
			delivered++
			continue
		}
		pkt := &Packet{
			Dest:      mob.Position(int(to), 0),
			DeliverTo: to,
			HopBudget: 20,
			OnOutcome: func(_ medium.NodeID, _ *Packet, o Outcome) {
				if o == Delivered {
					delivered++
				}
			},
		}
		r.Send(from, pkt)
	}
	eng.Run()
	if delivered < tries*9/10 {
		t.Fatalf("only %d/%d delivered in dense static network", delivered, tries)
	}
}

func TestGreedyPathIsMonotone(t *testing.T) {
	// In greedy mode every recorded hop strictly decreases the distance
	// to the destination (using true positions in a static network).
	eng := sim.NewEngine()
	src := rng.New(10)
	mob := mobility.NewStatic(field, 150, src)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	r := New(net)
	r.AttachAll()
	var done *Packet
	pkt := &Packet{
		Dest:      geo.Point{X: 990, Y: 990},
		DeliverTo: NoDeliverTo,
		HopBudget: 30,
		OnOutcome: func(_ medium.NodeID, p *Packet, _ Outcome) { done = p },
	}
	r.Send(0, pkt)
	eng.Run()
	if done == nil {
		t.Fatal("no outcome")
	}
	if r.Counters().PerimeterEntries > 0 {
		t.Skip("hit perimeter mode; monotonicity only holds for greedy")
	}
	for i := 1; i < len(done.Path); i++ {
		a := mob.Position(int(done.Path[i-1]), 0).Dist(pkt.Dest)
		b := mob.Position(int(done.Path[i]), 0).Dist(pkt.Dest)
		if b >= a {
			t.Fatalf("hop %d did not reduce distance: %v -> %v", i, a, b)
		}
	}
}

func TestDefaultHopBudgetApplied(t *testing.T) {
	eng, _, r := netFromModel(lineTopology(3, 200), 11)
	pkt := &Packet{
		Dest:      geo.Point{X: 400, Y: 500},
		DeliverTo: 2,
		OnOutcome: func(_ medium.NodeID, _ *Packet, _ Outcome) {},
	}
	r.Send(0, pkt)
	eng.Run()
	// Budget defaulted to 10 and 2 hops were used.
	if pkt.HopBudget != DefaultHopBudget-2 {
		t.Fatalf("remaining budget = %d", pkt.HopBudget)
	}
}

func TestOutcomeStrings(t *testing.T) {
	names := map[Outcome]string{
		Delivered:      "delivered",
		ArrivedClosest: "arrived-closest",
		DroppedTTL:     "dropped-ttl",
		DroppedDeadEnd: "dropped-dead-end",
	}
	for o, want := range names {
		if o.String() != want {
			t.Fatalf("%d.String() = %q", o, o.String())
		}
	}
}

func TestPlanarizeGabriel(t *testing.T) {
	self := geo.Point{X: 0, Y: 0}
	// Neighbor at (200,0) is eliminated by witness at (100,10), which is
	// inside the circle with diameter (self, u).
	nbrs := []medium.Neighbor{
		{ID: 1, Pos: geo.Point{X: 200, Y: 0}},
		{ID: 2, Pos: geo.Point{X: 100, Y: 10}},
	}
	planar := planarize(nil, self, nbrs)
	for _, nb := range planar {
		if nb.ID == 1 {
			t.Fatal("Gabriel test failed to remove covered edge")
		}
	}
	// The witness itself must survive.
	if len(planar) != 1 || planar[0].ID != 2 {
		t.Fatalf("planar = %v", planar)
	}
}

func TestRightHandRuleOrder(t *testing.T) {
	self := geo.Point{X: 0, Y: 0}
	ref := geo.Point{X: 1, Y: 0} // incoming direction: east
	nbrs := []medium.Neighbor{
		{ID: 1, Pos: geo.Point{X: 0, Y: 1}},  // north: +90 CCW
		{ID: 2, Pos: geo.Point{X: -1, Y: 0}}, // west: +180
		{ID: 3, Pos: geo.Point{X: 0, Y: -1}}, // south: +270
	}
	got := rightHand(self, ref, nbrs)
	if got.ID != 1 {
		t.Fatalf("rightHand picked %d, want 1 (smallest CCW sweep)", got.ID)
	}
}

func TestRightHandSkipsIncomingEdge(t *testing.T) {
	// The neighbor exactly in the reference direction must be last
	// choice (delta ~ 2pi), not first (delta ~ 0).
	self := geo.Point{X: 0, Y: 0}
	ref := geo.Point{X: 1, Y: 0}
	nbrs := []medium.Neighbor{
		{ID: 1, Pos: geo.Point{X: 2, Y: 0}}, // same direction as ref
		{ID: 2, Pos: geo.Point{X: 0, Y: 5}}, // CCW 90
	}
	got := rightHand(self, ref, nbrs)
	if got.ID != 2 {
		t.Fatalf("rightHand picked %d, want 2", got.ID)
	}
}

// Property: the Gabriel planarization never disconnects a node from all its
// neighbors — planar perimeter forwarding always has an edge to walk.
func TestQuickPlanarizeKeepsAnEdge(t *testing.T) {
	src := rng.New(21)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		pts := make([]medium.Neighbor, n)
		local := rng.New(seed)
		for i := range pts {
			pts[i] = medium.Neighbor{
				ID:  medium.NodeID(i + 1),
				Pos: geo.Point{X: local.Uniform(0, 250), Y: local.Uniform(0, 250)},
			}
		}
		self := geo.Point{X: local.Uniform(0, 250), Y: local.Uniform(0, 250)}
		planar := planarize(nil, self, pts)
		return len(planar) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	_ = src
}

// Property: planarize returns a subset of the input neighbors.
func TestQuickPlanarizeSubset(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%15) + 1
		local := rng.New(seed)
		pts := make([]medium.Neighbor, n)
		in := map[medium.NodeID]bool{}
		for i := range pts {
			pts[i] = medium.Neighbor{
				ID:  medium.NodeID(i + 1),
				Pos: geo.Point{X: local.Uniform(0, 200), Y: local.Uniform(0, 200)},
			}
			in[pts[i].ID] = true
		}
		self := geo.Point{X: 100, Y: 100}
		for _, nb := range planarize(nil, self, pts) {
			if !in[nb.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the gpsr greedy step never picks a neighbor farther from the
// destination than the current holder.
func TestQuickNextGreedyImproves(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(22)
	mob := mobility.NewStatic(field, 80, src)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	r := New(net)
	f := func(fromRaw uint8, dx, dy uint16) bool {
		from := medium.NodeID(int(fromRaw) % 80)
		dest := geo.Point{X: float64(dx % 1000), Y: float64(dy % 1000)}
		next, ok := r.NextGreedy(from, dest)
		if !ok {
			return true
		}
		selfD := med.PositionNow(from).Dist(dest)
		nextD := med.PositionNow(next).Dist(dest)
		return nextD < selfD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanarizeRNGSubsetOfGabriel(t *testing.T) {
	// RNG is a known subgraph of the Gabriel graph.
	src := rng.New(31)
	for trial := 0; trial < 200; trial++ {
		n := src.Intn(15) + 2
		self := geo.Point{X: src.Uniform(0, 250), Y: src.Uniform(0, 250)}
		nbrs := make([]medium.Neighbor, n)
		for i := range nbrs {
			nbrs[i] = medium.Neighbor{
				ID:  medium.NodeID(i + 1),
				Pos: geo.Point{X: src.Uniform(0, 250), Y: src.Uniform(0, 250)},
			}
		}
		gg := map[medium.NodeID]bool{}
		for _, nb := range planarize(nil, self, nbrs) {
			gg[nb.ID] = true
		}
		for _, nb := range planarizeRNG(nil, self, nbrs) {
			if !gg[nb.ID] {
				t.Fatalf("trial %d: RNG kept edge %d that Gabriel removed", trial, nb.ID)
			}
		}
	}
}

func TestRNGPlanarizationStillDelivers(t *testing.T) {
	// The concave-void topology must still route with RNG perimeter mode:
	// walk it hop by hop through Step, over exact neighbour tables.
	pos := []geo.Point{
		{X: 0, Y: 500}, {X: 200, Y: 500}, {X: 200, Y: 300},
		{X: 450, Y: 300}, {X: 600, Y: 500},
	}
	rangeM := medium.DefaultParams().Range
	st := NewForwardState()
	var scratch []medium.Neighbor
	cur, perimeter := medium.NodeID(0), false
	for hops := 0; cur != 4; hops++ {
		if hops == 10 {
			t.Fatal("RNG perimeter walk exhausted a 10-hop budget")
		}
		var nbrs []medium.Neighbor
		for id, p := range pos {
			if medium.NodeID(id) != cur && pos[cur].Within(p, rangeM) {
				nbrs = append(nbrs, medium.Neighbor{ID: medium.NodeID(id), Pos: p})
			}
		}
		var prevPos geo.Point
		if st.Prev != NoDeliverTo {
			prevPos = pos[st.Prev]
		}
		next, verdict, entered, s := Step(cur, pos[cur], prevPos, pos[4], false, rangeM,
			RelativeNeighborhood, nbrs, scratch, &st)
		scratch = s
		if verdict != StepForward {
			t.Fatalf("hop %d at node %d: verdict %v with RNG planarization", hops, cur, verdict)
		}
		perimeter = perimeter || entered
		st.Prev, cur = cur, next
	}
	if !perimeter {
		t.Fatal("the walk never entered perimeter mode; the void no longer tests RNG")
	}
}
