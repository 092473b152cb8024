package ao2p

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

func build(seed int64, n int) (*sim.Engine, *node.Network, *Protocol) {
	eng := sim.NewEngine()
	src := rng.New(seed)
	mob := mobility.NewStatic(field, n, src)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.DefaultCostModel(), src)
	loc := locservice.New(net, locservice.DefaultConfig())
	return eng, net, New(net, loc, DefaultConfig(), src)
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
	eng, net, p := build(1, 200)
	s, d := farPair(net, 600)
	rec, _ := p.Send(s, d, []byte("x"))
	eng.RunUntil(30)
	if !rec.Delivered {
		t.Fatal("AO2P failed to deliver in dense static network")
	}
	if rec.Hops < 2 {
		t.Fatalf("hops = %d for 600 m pair", rec.Hops)
	}
}

func TestPerHopPublicKeyLatency(t *testing.T) {
	eng, net, p := build(2, 200)
	s, d := farPair(net, 600)
	rec, _ := p.Send(s, d, []byte("x"))
	eng.RunUntil(60)
	if !rec.Delivered {
		t.Skip("undeliverable pair")
	}
	// Each of the rec.Hops hops paid at least one public-key charge
	// (source + relays) plus the final decryption.
	min := float64(rec.Hops) * net.Costs.PubEncrypt
	if rec.Latency() < min {
		t.Fatalf("latency %v below per-hop crypto floor %v (%d hops)",
			rec.Latency(), min, rec.Hops)
	}
}

func TestVirtualDestBeyondD(t *testing.T) {
	_, net, p := build(3, 50)
	s := geo.Point{X: 100, Y: 100}
	d := geo.Point{X: 500, Y: 500}
	for i := 0; i < 100; i++ {
		v := p.virtualDest(s, d)
		// The virtual destination is farther from S than D is.
		if v.Dist(s) < d.Dist(s) {
			t.Fatalf("virtual dest %v closer to S than D", v)
		}
		if !net.Field().Contains(v) {
			t.Fatalf("virtual dest %v outside field", v)
		}
	}
}

func TestVirtualDestClamped(t *testing.T) {
	_, net, p := build(4, 50)
	// D near the corner: the extension must clamp into the field.
	v := p.virtualDest(geo.Point{X: 100, Y: 100}, geo.Point{X: 990, Y: 990})
	if !net.Field().Contains(v) {
		t.Fatalf("virtual dest %v escaped the field", v)
	}
}

func TestLongerPathsThanStraightLine(t *testing.T) {
	// Aiming beyond D should, over many sends, give paths at least as
	// long as the straight-line hop count (paper: "may lead to long path
	// length with higher routing cost than GPSR").
	eng, net, p := build(5, 200)
	s, d := farPair(net, 500)
	for i := 0; i < 10; i++ {
		p.Send(s, d, []byte("x"))
		eng.RunUntil(float64(i+1) * 20)
	}
	if p.Collector().DeliveryRate() == 0 {
		t.Skip("nothing delivered")
	}
	straight := net.Node(s).Position().Dist(net.Node(d).Position()) /
		net.Med.Params().Range
	if p.Collector().HopsPerPacket() < straight-1 {
		t.Fatalf("hops/packet %v below geometric floor %v",
			p.Collector().HopsPerPacket(), straight)
	}
}

func TestUndeliveredOnIsland(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(6)
	pos := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 900, Y: 900}}
	mob := &pinned{pos: pos}
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, locservice.DefaultConfig())
	p := New(net, loc, DefaultConfig(), src)
	rec, _ := p.Send(0, 2, []byte("x"))
	eng.RunUntil(30)
	if rec.Delivered {
		t.Fatal("cross-island delivery should fail")
	}
	if p.Collector().Completed() != 1 {
		t.Fatal("record never completed")
	}
}

type pinned struct{ pos []geo.Point }

func (p *pinned) Position(id int, _ float64) geo.Point { return p.pos[id] }
func (p *pinned) N() int                               { return len(p.pos) }
func (p *pinned) Field() geo.Rect                      { return field }
func (p *pinned) MaxSpeed() float64                    { return 0 }

func TestLocServiceFailure(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(7)
	mob := mobility.NewStatic(field, 20, src)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, locservice.DefaultConfig())
	p := New(net, loc, DefaultConfig(), src)
	for i := 0; i < loc.NumServers(); i++ {
		loc.FailServer(i)
	}
	rec, _ := p.Send(0, 5, []byte("x"))
	eng.RunUntil(5)
	if rec.Delivered || p.Collector().Completed() != 1 {
		t.Fatal("send without location service should fail fast")
	}
}
