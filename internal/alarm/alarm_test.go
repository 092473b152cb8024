package alarm

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
	return eng, net, New(net, loc, cfg)
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
		t.Fatal("ALARM failed to deliver in dense static network")
	}
	if rec.Hops < 2 {
		t.Fatalf("hops = %d", rec.Hops)
	}
}

func TestPerHopCryptoLatency(t *testing.T) {
	eng, net, p := build(2, 200, DefaultConfig())
	s, d := farPair(net, 600)
	rec, _ := p.Send(s, d, []byte("x"))
	eng.RunUntil(60)
	if !rec.Delivered {
		t.Skip("undeliverable pair")
	}
	min := float64(rec.Hops) * net.Costs.PubEncrypt
	if rec.Latency() < min {
		t.Fatalf("latency %v below per-hop crypto floor %v", rec.Latency(), min)
	}
}

func TestDisseminationRounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisseminationPeriod = 30
	eng, _, p := build(3, 100, cfg)
	eng.RunUntil(100)
	if p.Rounds() != 3 {
		t.Fatalf("rounds = %d in 100 s with 30 s period, want 3", p.Rounds())
	}
	wantExtra := uint64(3 * 100 * cfg.DisseminationRelays)
	if p.Collector().ExtraHops != wantExtra {
		t.Fatalf("ExtraHops = %d, want %d", p.Collector().ExtraHops, wantExtra)
	}
}

func TestDisseminationDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisseminationPeriod = 0
	eng, _, p := build(4, 50, cfg)
	eng.RunUntil(100)
	if p.Rounds() != 0 || p.Collector().ExtraHops != 0 {
		t.Fatal("dissemination should be off")
	}
}

func TestDisseminationDominatesHopMetric(t *testing.T) {
	// The "ALARM (include id dissemination hops)" series: with the
	// paper's CBR workload, dissemination overhead roughly doubles the
	// per-packet hop count.
	cfg := DefaultConfig()
	eng, net, p := build(5, 200, cfg)
	s, d := farPair(net, 400)
	// 50 packets over 100 s (one per 2 s).
	for i := 0; i < 50; i++ {
		at := float64(i) * 2
		eng.At(at+0.001, func() { p.Send(s, d, []byte("x")) })
	}
	eng.RunUntil(100)
	withDiss := p.Collector().HopsPerPacket()
	routingOnly := withDiss - float64(p.Collector().ExtraHops)/50
	if withDiss <= routingOnly {
		t.Fatal("dissemination added nothing")
	}
	ratio := withDiss / routingOnly
	if ratio < 1.5 {
		t.Fatalf("dissemination ratio %v too small to reproduce Fig. 15a", ratio)
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
	p := New(net, loc, DefaultConfig())
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
	eng := sim.NewEngine()
	src := rng.New(7)
	mob := mobility.NewStatic(field, 30, src)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, locservice.DefaultConfig())
	p := New(net, loc, DefaultConfig())
	for i := 0; i < loc.NumServers(); i++ {
		loc.FailServer(i)
	}
	rec, _ := p.Send(0, 5, []byte("x"))
	eng.RunUntil(5)
	if rec.Delivered || p.Collector().Completed() != 1 {
		t.Fatal("send without location service should fail fast")
	}
}
