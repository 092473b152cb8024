package core

import (
	"math"
	"slices"
	"testing"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/node"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

// zoneHolders runs packets from s to d and returns, per data packet that
// was zone-broadcast, its Z_D and origin (the node that broadcast it
// first) and the Z_D members OnZoneRecipients reported at step one.
func zoneHolders(w *world, s, d medium.NodeID, packets int) (zone map[int]geo.Rect, origin map[int]medium.NodeID, held map[int][]medium.NodeID) {
	zone, origin, held = map[int]geo.Rect{}, map[int]medium.NodeID{}, map[int][]medium.NodeID{}
	w.net.Med.TapSend(func(tx medium.Transmission) {
		zd, ok := tx.Payload.(*ZoneDelivery)
		if !ok || zd.Step != 1 || zd.Env.Kind != KindData {
			return
		}
		if _, seen := origin[zd.Env.Seq]; !seen {
			origin[zd.Env.Seq], zone[zd.Env.Seq] = tx.From, zd.Env.LZD
		}
	})
	w.prot.OnZoneRecipients = func(seq, step int, z geo.Rect, rs []medium.NodeID, t float64) {
		for _, id := range rs {
			if step == 1 && z.Contains(w.mob.Position(int(id), t)) && !slices.Contains(held[seq], id) {
				held[seq] = append(held[seq], id)
			}
		}
	}
	for i := 0; i < packets; i++ {
		w.eng.At(float64(i)+0.01, func() { w.prot.Send(s, d, []byte("x")) })
	}
	w.eng.RunUntil(float64(packets) + w.prot.cfg.CompleteTimeout)
	return zone, origin, held
}

// floodReach is the set of zone members that relaying at every member
// reaches from origin on a static lossless field: the members within
// range of the origin (the origin too, when it is one), closed under
// being within range of a member that holds the packet. Sorted by id.
func floodReach(w *world, origin medium.NodeID, zone geo.Rect) []medium.NodeID {
	rangeM := w.net.Med.Params().Range
	pos := func(id medium.NodeID) geo.Point { return w.mob.Position(int(id), 0) }
	var reach []medium.NodeID
	if zone.Contains(pos(origin)) {
		reach = append(reach, origin)
	}
	for frontier := []medium.NodeID{origin}; len(frontier) > 0; frontier = frontier[1:] {
		at := frontier[0]
		for id := medium.NodeID(0); int(id) < w.net.N(); id++ {
			if zone.Contains(pos(id)) && !slices.Contains(reach, id) && pos(at).Within(pos(id), rangeM) {
				reach = append(reach, id)
				frontier = append(frontier, id)
			}
		}
	}
	slices.Sort(reach)
	return reach
}

// checkZoneReach sends packets from s to d on w's static lossless field
// and fails t unless every zone-broadcast packet's holders in Z_D, origin
// included, are exactly the members the relay-everything flood reaches.
// It returns how many packets it checked.
func checkZoneReach(t testing.TB, w *world, s, d medium.NodeID, packets int) int {
	t.Helper()
	zone, origin, held := zoneHolders(w, s, d, packets)
	for seq, o := range origin {
		got, want := slices.Clone(held[seq]), floodReach(w, o, zone[seq])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("packet %d from origin %d: Z_D members holding it %v, flood reaches %v", seq, o, got, want)
		}
	}
	return len(origin)
}

// TestZoneReach: on static lossless fields the relay rule keeps every Z_D
// member the flood reached, across densities from sparse to the paper's.
func TestZoneReach(t *testing.T) {
	checked := 0
	for _, n := range []int{50, 100, 200} {
		for seed := int64(1); seed <= 4; seed++ {
			w := build(seed, n, 0, DefaultConfig())
			s, d := w.farPair(500)
			checked += checkZoneReach(t, w, s, d, 4)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d packets reached a zone broadcast", checked)
	}
}

// FuzzZoneReach is TestZoneReach over random static fields: any node
// count from 2 to 201 and any source and destination.
func FuzzZoneReach(f *testing.F) {
	f.Add(int64(1), uint8(48), uint8(0), uint8(1))
	f.Add(int64(7), uint8(198), uint8(3), uint8(150))
	f.Add(int64(3), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, s, d uint8) {
		size := 2 + int(n)
		w := build(seed, size, 0, DefaultConfig())
		src, dst := medium.NodeID(int(s)%size), medium.NodeID(int(d)%size)
		if src == dst {
			dst = (dst + 1) % medium.NodeID(size)
		}
		checkZoneReach(t, w, src, dst, 3)
	})
}

// TestZoneRecipientsIncludeOrigin: when D is the last random forwarder it
// broadcasts the packet itself, and nobody relays (it is Z_D's only
// member). OnZoneRecipients, the intersection attack's ground truth, must
// still report D holding every packet.
func TestZoneRecipientsIncludeOrigin(t *testing.T) {
	const s, d, packets = 0, 2, 4
	// At H = 1, Z_D is the right half, which only D occupies, and D is
	// the node closest to every point of it.
	pos := []geo.Point{{X: 100, Y: 400}, {X: 300, Y: 400}, {X: 520, Y: 400}}
	eng := sim.NewEngine()
	src := rng.New(5)
	mob := &pinned{pos: pos}
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.DefaultCostModel(), src)
	cfg := DefaultConfig()
	cfg.H = 1
	w := &world{eng: eng, net: net, mob: mob, prot: MustNew(net, locservice.New(net, true), cfg, 512, src)}
	_, origin, held := zoneHolders(w, s, d, packets)
	if len(origin) != packets {
		t.Fatalf("%d of %d packets zone-broadcast", len(origin), packets)
	}
	for seq, o := range origin {
		if o != d {
			t.Fatalf("packet %d zone-broadcast by %d, want D (%d)", seq, o, d)
		}
		if !slices.Equal(held[seq], []medium.NodeID{d}) {
			t.Fatalf("packet %d: Z_D members reported holding it %v, want [%d]", seq, held[seq], d)
		}
	}
	if got := w.prot.Counters().Delivered; got != packets {
		t.Fatalf("delivered %d of %d", got, packets)
	}
}

// TestRelayAddsReach: on a lossless channel a member relays only for a
// zone member in its range that lies beyond the sender's coverage; the
// sender and nodes outside Z_D never count, and a coverage that is not a
// number covers nobody. On a lossy channel it always relays.
func TestRelayAddsReach(t *testing.T) {
	zone := geo.Rect{Min: geo.Point{X: -250, Y: -250}, Max: geo.Point{X: 250, Y: 250}}
	self, sender := geo.Point{}, geo.Point{X: 200}
	par := medium.DefaultParams()
	par.Range = 250
	const senderID = 9
	for _, tc := range []struct {
		name  string
		c     medium.Neighbor
		cover float64
		want  bool
	}{
		{"member beyond the sender's range", medium.Neighbor{ID: 1, Pos: geo.Point{X: -200}}, 250, true},
		{"member within both ranges", medium.Neighbor{ID: 1, Pos: geo.Point{X: 100, Y: 100}}, 250, false},
		{"member in the sender's range, beyond its coverage", medium.Neighbor{ID: 1, Pos: geo.Point{Y: 100}}, 150, true},
		{"member beyond self's range", medium.Neighbor{ID: 1, Pos: geo.Point{X: -240, Y: 240}}, 250, false},
		{"non-member beyond the sender's range", medium.Neighbor{ID: 1, Pos: geo.Point{X: -200, Y: 251}}, 250, false},
		{"the sender, wherever it stands", medium.Neighbor{ID: senderID, Pos: geo.Point{X: -200}}, 250, false},
		{"unbounded drift: coverage covers nobody", medium.Neighbor{ID: 1, Pos: geo.Point{X: 100, Y: 100}}, math.NaN(), true},
	} {
		cands := func() []medium.Neighbor { return []medium.Neighbor{{ID: 2, Pos: geo.Point{X: 200, Y: 10}}, tc.c} }
		if got := RelayAddsReach(self, sender, senderID, cands, zone, par, tc.cover); got != tc.want {
			t.Errorf("%s: RelayAddsReach = %v, want %v", tc.name, got, tc.want)
		}
	}
	none := func() []medium.Neighbor { return nil }
	if RelayAddsReach(self, sender, senderID, none, zone, par, 250) {
		t.Error("no candidates: RelayAddsReach = true")
	}
	par.LossRate = 0.2
	if !RelayAddsReach(self, sender, senderID, none, zone, par, 250) {
		t.Error("lossy channel, no candidates: RelayAddsReach = false")
	}
}

// drifting moves each node from its start at its own constant velocity.
type drifting struct{ start, vel []geo.Point }

func (m *drifting) Position(id int, t float64) geo.Point {
	return geo.Point{X: m.start[id].X + m.vel[id].X*t, Y: m.start[id].Y + m.vel[id].Y*t}
}
func (m *drifting) N() int          { return len(m.start) }
func (m *drifting) Field() geo.Rect { return field }
func (m *drifting) MaxSpeed() float64 {
	top := 0.0
	for _, v := range m.vel {
		top = math.Max(top, math.Hypot(v.X, v.Y))
	}
	return top
}

// TestZoneRelayAllowsForDrift: the simulator's medium delivers on true
// positions, so a zone member whose beacon lies within the sender's range
// may since have moved out of it. Node 2 beaconed 240 m from the sender,
// node 0; moving at 20 m/s it stands 258 m away 0.9 s later, so node 1,
// hearing node 0 then, relays for it. Standing still, node 2 heard node 0
// and node 1 stays silent.
func TestZoneRelayAllowsForDrift(t *testing.T) {
	for _, tc := range []struct {
		speed  float64
		relays uint64
	}{{0, 0}, {20, 1}} {
		mob := &drifting{
			start: []geo.Point{{X: 100, Y: 500}, {X: 200, Y: 500}, {X: 340, Y: 500}},
			vel:   []geo.Point{{}, {}, {X: tc.speed}},
		}
		eng := sim.NewEngine()
		src := rng.New(1)
		med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
		net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.DefaultCostModel(), src)
		prot := MustNew(net, locservice.New(net, true), DefaultConfig(), 512, src)
		env := &Envelope{Kind: KindData, PD: crypt.Pseudonym{1}, relayed: []medium.NodeID{0}}
		env.LZD = geo.Rect{Min: geo.Point{X: 50, Y: 450}, Max: geo.Point{X: 450, Y: 550}}
		eng.At(0.9, func() { prot.handleZone(1, 0, &ZoneDelivery{Step: 1, Env: env}) })
		eng.RunUntil(2)
		if got := prot.Counters().ZoneRelays; got != tc.relays {
			t.Errorf("node 2 at %v m/s: %d zone relays, want %d", tc.speed, got, tc.relays)
		}
	}
}

// TestZoneMembersMemo: zoneMembers gathers a zone's members once per zone
// and instant and leaves each caller out. Two zones asked about at one
// instant, in turn, each get their own members, and so does one zone
// asked about on either side of a hello tick: node 3 beacons left of
// x = 500 at 0 s and right of it at 1 s.
func TestZoneMembersMemo(t *testing.T) {
	mob := &drifting{
		start: []geo.Point{{X: 100, Y: 100}, {X: 200, Y: 200}, {X: 700, Y: 700}, {X: 490, Y: 300}},
		vel:   []geo.Point{{}, {}, {}, {X: 20}},
	}
	eng := sim.NewEngine()
	src := rng.New(1)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.DefaultCostModel(), src)
	prot := MustNew(net, locservice.New(net, true), DefaultConfig(), 512, src)
	left := geo.Rect{Max: geo.Point{X: 500, Y: 1000}}
	right := geo.Rect{Min: geo.Point{X: 500}, Max: geo.Point{X: 1000, Y: 1000}}
	expect := func(at medium.NodeID, zone geo.Rect, want ...medium.NodeID) {
		t.Helper()
		var got []medium.NodeID
		for _, c := range prot.zoneMembers(at, zone) {
			if c.Pos != med.BeaconPosition(c.ID) {
				t.Errorf("t=%v: member %d at %v, beacon %v", eng.Now(), c.ID, c.Pos, med.BeaconPosition(c.ID))
			}
			got = append(got, c.ID)
		}
		if !slices.Equal(got, want) {
			t.Errorf("t=%v: node %d asks about %v: members %v, want %v", eng.Now(), at, zone, got, want)
		}
	}
	eng.At(0.9, func() {
		expect(0, left, 1, 3)
		expect(1, left, 0, 3)
		expect(0, right, 2)
		expect(2, right)
		expect(3, left, 0, 1)
	})
	eng.At(1.1, func() {
		expect(0, left, 1)
		expect(0, right, 2, 3)
	})
	eng.RunUntil(2)
}

// TestZoneRelayOnLossyChannel: where each receiver draws its own loss, a
// member within the sender's range may have missed its broadcast, so every
// Z_D member that first hears a packet relays it, the origin excepted.
func TestZoneRelayOnLossyChannel(t *testing.T) {
	w := build(2, 200, 0, DefaultConfig())
	w.net.Med.SetLossRate(0.2)
	s, d := w.farPair(500)
	origin := map[*Envelope]medium.NodeID{}
	heard := map[*Envelope][]medium.NodeID{}
	w.net.Med.TapSend(func(tx medium.Transmission) {
		if zd, ok := tx.Payload.(*ZoneDelivery); ok {
			if _, seen := origin[zd.Env]; !seen {
				origin[zd.Env] = tx.From
			}
		}
	})
	w.net.Med.TapRecv(func(r medium.Reception) {
		zd, ok := r.Payload.(*ZoneDelivery)
		if ok && zd.Step == 1 && zd.Env.Kind == KindData && r.To != origin[zd.Env] &&
			zd.Env.LZD.Contains(w.net.Med.BeaconPosition(r.To)) && !slices.Contains(heard[zd.Env], r.To) {
			heard[zd.Env] = append(heard[zd.Env], r.To)
		}
	})
	for i := 0; i < 6; i++ {
		w.eng.At(float64(i)+0.01, func() { w.prot.Send(s, d, []byte("x")) })
	}
	w.eng.RunUntil(6 + w.prot.cfg.CompleteTimeout)
	want := 0
	for _, ids := range heard {
		want += len(ids)
	}
	if len(heard) < 3 {
		t.Fatalf("only %d packets reached a zone member", len(heard))
	}
	if got := w.prot.Counters().ZoneRelays; got != uint64(want) {
		t.Fatalf("%d zone relays, want %d: one per Z_D member that heard a packet", got, want)
	}
}
