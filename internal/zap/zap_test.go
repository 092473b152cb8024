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
	loc := locservice.New(net, locservice.DefaultConfig())
	return eng, net, New(net, loc, cfg, src)
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
	eng, net, p := build(1, 200, DefaultConfig())
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
	_, net, p := build(2, 100, DefaultConfig())
	for i := 0; i < 50; i++ {
		d := medium.NodeID(i % net.N())
		e, _ := p.loc.Lookup(d)
		zone := p.zoneFor(e.Pos, p.cfg.ZoneSide)
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
	_, net, p := build(3, 100, DefaultConfig())
	centered := 0
	for i := 0; i < 50; i++ {
		d := medium.NodeID(i % net.N())
		e, _ := p.loc.Lookup(d)
		zone := p.zoneFor(e.Pos, p.cfg.ZoneSide)
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
		cfg := DefaultConfig()
		cfg.EnlargePerPacket = enlarge
		eng, net, p := build(4, 200, cfg)
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
	eng, net, p := build(5, 200, DefaultConfig())
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
	loc := locservice.New(net, locservice.DefaultConfig())
	p := New(net, loc, DefaultConfig(), src)
	rec, _ := p.Send(0, 1, []byte("x"))
	eng.RunUntil(30)
	if rec.Delivered || p.Collector().Completed() != 1 {
		t.Fatal("unreachable destination should complete undelivered")
	}
}

type pinned struct{ pos []geo.Point }

func (p *pinned) Position(id int, _ float64) geo.Point { return p.pos[id] }
func (p *pinned) N() int                               { return len(p.pos) }
func (p *pinned) Field() geo.Rect                      { return field }
func (p *pinned) MaxSpeed() float64                    { return 0 }

func TestLocServiceFailure(t *testing.T) {
	eng, _, p := build(7, 30, DefaultConfig())
	for i := 0; i < p.loc.NumServers(); i++ {
		p.loc.FailServer(i)
	}
	rec, _ := p.Send(0, 5, []byte("x"))
	eng.RunUntil(5)
	if rec.Delivered || p.Collector().Completed() != 1 {
		t.Fatal("send without location service should fail fast")
	}
}

func TestMaxZoneSideCaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnlargePerPacket = 500
	cfg.MaxZoneSide = 300
	eng, net, p := build(8, 100, cfg)
	s, d := farPair(net, 400)
	for i := 0; i < 5; i++ {
		at := float64(i) * 2
		eng.At(at+0.001, func() { p.Send(s, d, []byte("x")) })
	}
	eng.RunUntil(30)
	// Indirect check: the last zone side is capped, so hops stay bounded
	// by the 300 m zone's population rather than the whole field's.
	recs := p.Collector().Records()
	last := recs[len(recs)-1]
	if last.Hops > 60 {
		t.Fatalf("hops %d suggest the zone escaped its cap", last.Hops)
	}
}
