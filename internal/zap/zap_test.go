package zap

import (
	"testing"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/mobility"
	"alertmanet/internal/node"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

var field = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

func build(seed int64, n int, cfg Config) (*sim.Engine, *node.Network, *Protocol) {
	eng := sim.NewEngine()
	src := rng.New(seed)
	mob := mobility.NewStatic(field, n, src)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.DefaultCostModel(), src)
	loc := locservice.New(net, true)
	return eng, net, New(net, loc, cfg, 512, src)
}

func farPair(net *node.Network, minDist float64) (medium.NodeID, medium.NodeID) {
	for s := 0; s < net.N(); s++ {
		for d := s + 1; d < net.N(); d++ {
			if net.Node(medium.NodeID(s)).Position().Dist(
				net.Node(medium.NodeID(d)).Position()) >= minDist {
				return medium.NodeID(s), medium.NodeID(d)
			}
		}
	}
	panic("no far pair")
}

func TestDelivery(t *testing.T) {
	eng, net, p := build(1, 200, Config{})
	s, d := farPair(net, 600)
	rec, _ := p.Send(s, d, []byte("x"))
	eng.RunUntil(30)
	if !rec.Delivered {
		t.Fatal("ZAP failed to deliver in dense static network")
	}
	if rec.Hops < 3 {
		t.Fatalf("hops = %d; geo-forwarding plus zone flood expected", rec.Hops)
	}
}

func TestZoneContainsDestination(t *testing.T) {
	_, net, p := build(2, 100, Config{})
	for i := 0; i < 50; i++ {
		d := medium.NodeID(i % net.N())
		e := p.loc.Lookup(d)
		zone := p.zoneFor(e.Pos, zoneSide)
		if !zone.Contains(e.Pos) {
			t.Fatalf("zone %v does not contain D at %v", zone, e.Pos)
		}
		if !field.ContainsRect(zone) {
			t.Fatalf("zone %v escapes the field", zone)
		}
	}
}

func TestZoneNotCenteredOnDestination(t *testing.T) {
	// The cloaking zone's centroid should usually differ from D's
	// position — otherwise the zone itself reveals D.
	_, net, p := build(3, 100, Config{})
	centered := 0
	for i := 0; i < 50; i++ {
		d := medium.NodeID(i % net.N())
		e := p.loc.Lookup(d)
		zone := p.zoneFor(e.Pos, zoneSide)
		if zone.Center().Dist(e.Pos) < 1 {
			centered++
		}
	}
	if centered > 10 {
		t.Fatalf("zone centered on D %d/50 times", centered)
	}
}

func TestEnlargementGrowsOverhead(t *testing.T) {
	// ZAP's intersection-attack remedy: the zone (and thus the flood)
	// grows every packet, so hops/packet increase through the session —
	// the cost ALERT's Section 3.3 strategy avoids.
	run := func(enlarge float64) (first, last float64) {
		eng, net, p := build(4, 200, Config{EnlargePerPacket: enlarge})
		s, d := farPair(net, 500)
		const packets = 10
		for i := 0; i < packets; i++ {
			at := float64(i) * 2
			eng.At(at+0.001, func() { p.Send(s, d, []byte("x")) })
		}
		eng.RunUntil(60)
		recs := p.Collector().Records()
		if len(recs) < packets {
			t.Fatalf("only %d records", len(recs))
		}
		head, tail := 0.0, 0.0
		for i := 0; i < 3; i++ {
			head += float64(recs[i].Hops)
			tail += float64(recs[packets-1-i].Hops)
		}
		return head / 3, tail / 3
	}
	firstFlat, lastFlat := run(0)
	firstGrow, lastGrow := run(50)
	if lastGrow <= firstGrow {
		t.Fatalf("enlargement did not grow overhead: %v -> %v", firstGrow, lastGrow)
	}
	growth := lastGrow - firstGrow
	flat := lastFlat - firstFlat
	if growth <= flat {
		t.Fatalf("growth with enlargement (%v) should exceed without (%v)", growth, flat)
	}
}

func TestDestinationAnonymityWithinZone(t *testing.T) {
	// Every node in the zone receives the flood: D hides among them
	// (ZAP's k-anonymity analogue).
	eng, net, p := build(5, 200, Config{})
	s, d := farPair(net, 500)
	receivers := map[medium.NodeID]bool{}
	net.Med.TapRecv(func(rx medium.Reception) {
		if _, ok := rx.Payload.(*flood); ok {
			receivers[rx.To] = true
		}
	})
	rec, _ := p.Send(s, d, []byte("x"))
	eng.RunUntil(30)
	if !rec.Delivered {
		t.Skip("undeliverable placement")
	}
	if !receivers[d] {
		t.Fatal("destination missing from flood receivers")
	}
	if len(receivers) < 3 {
		t.Fatalf("only %d flood receivers; no anonymity crowd", len(receivers))
	}
}

func TestUndeliveredCompletes(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(6)
	pos := []geo.Point{{X: 0, Y: 0}, {X: 900, Y: 900}}
	mob := &pinned{pos: pos}
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, true)
	p := New(net, loc, Config{}, 512, src)
	rec, _ := p.Send(0, 1, []byte("x"))
	eng.RunUntil(30)
	if rec.Delivered || p.Collector().Completed() != 1 {
		t.Fatal("unreachable destination should complete undelivered")
	}
}

// TestAnchorIsDestination: on a line with 200 m spacing only D lies in
// its 180 m zone, so D is the anchor and no zone member echoes the flood
// back to it. The anchor must deliver to itself.
func TestAnchorIsDestination(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(9)
	mob := &pinned{pos: []geo.Point{{X: 100, Y: 500}, {X: 300, Y: 500},
		{X: 500, Y: 500}, {X: 700, Y: 500}, {X: 900, Y: 500}}}
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, true)
	p := New(net, loc, Config{}, 512, src)
	rec, _ := p.Send(0, 4, []byte("x"))
	eng.RunUntil(30)
	if !rec.Delivered {
		t.Fatalf("D as the zone's anchor never received the packet (path %v)", rec.Path)
	}
	if rec.Hops != 5 {
		t.Fatalf("hops = %d, want 4 geo-forwarding hops plus the anchor's flood", rec.Hops)
	}
}

type pinned struct{ pos []geo.Point }

func (p *pinned) Position(id int, _ float64) geo.Point { return p.pos[id] }
func (p *pinned) N() int                               { return len(p.pos) }
func (p *pinned) Field() geo.Rect                      { return field }
func (p *pinned) MaxSpeed() float64                    { return 0 }

func TestMaxZoneSideCaps(t *testing.T) {
	// 500 m of growth per packet passes the cap on the session's third
	// packet (uncapped, the fifth zone would span the whole field); no
	// flood may cover a zone wider than maxZoneSide.
	eng, net, p := build(8, 100, Config{EnlargePerPacket: 500})
	var widest float64
	net.Med.TapRecv(func(rx medium.Reception) {
		if f, ok := rx.Payload.(*flood); ok {
			widest = max(widest, f.Zone.Width(), f.Zone.Height())
		}
	})
	s, d := farPair(net, 400)
	for i := 0; i < 5; i++ {
		at := float64(i) * 2
		eng.At(at+0.001, func() { p.Send(s, d, []byte("x")) })
	}
	eng.RunUntil(30)
	if widest > maxZoneSide {
		t.Fatalf("flood zone %v m wide escaped the %v m cap", widest, maxZoneSide)
	}
	if widest <= zoneSide {
		t.Fatalf("widest flood zone %v m: the zone never grew", widest)
	}
}
