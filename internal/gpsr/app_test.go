package gpsr

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

func buildApp(seed int64, n int, speed float64, updates bool) (*sim.Engine, *node.Network, *locservice.Service, *App) {
	eng := sim.NewEngine()
	src := rng.New(seed)
	var mob mobility.Model
	if speed <= 0 {
		mob = mobility.NewStatic(field, n, src)
	} else {
		mob = mobility.NewRandomWaypoint(field, n, speed, nil, src)
	}
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, updates)
	return eng, net, loc, NewApp(net, loc, 512)
}

func appFarPair(net *node.Network, minDist float64) (medium.NodeID, medium.NodeID) {
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

func TestAppDelivery(t *testing.T) {
	eng, net, _, app := buildApp(1, 200, 0, true)
	s, d := appFarPair(net, 600)
	rec, _ := app.Send(s, d, []byte("x"))
	eng.RunUntil(30)
	if !rec.Delivered {
		t.Fatal("baseline GPSR failed in dense static network")
	}
	if rec.Latency() <= 0 || rec.Hops < 2 {
		t.Fatalf("rec = %+v", rec)
	}
	if app.Collector().DeliveryRate() != 1 {
		t.Fatal("delivery rate wrong")
	}
}

func TestAppShortestPathStable(t *testing.T) {
	// GPSR always takes the same greedy path in a static network — the
	// property that makes it traceable (Section 3.1).
	eng, net, _, app := buildApp(2, 200, 0, true)
	s, d := appFarPair(net, 600)
	var paths [][]medium.NodeID
	for i := 0; i < 3; i++ {
		rec, _ := app.Send(s, d, []byte("x"))
		eng.RunUntil(float64(i+1) * 10)
		paths = append(paths, rec.Path)
	}
	for i := 1; i < len(paths); i++ {
		if len(paths[i]) != len(paths[0]) {
			t.Fatal("static GPSR paths differ in length")
		}
		for j := range paths[i] {
			if paths[i][j] != paths[0][j] {
				t.Fatal("static GPSR paths differ")
			}
		}
	}
}

func TestAppStaleDestinationFails(t *testing.T) {
	// Without destination updates and with fast movement, the looked-up
	// position goes stale and delivery degrades (Fig. 16b).
	run := func(updates bool) float64 {
		eng, net, _, app := buildApp(3, 200, 20, updates)
		sent := 0
		for i := 0; i < 20; i++ {
			at := float64(i) * 4
			eng.At(at, func() {
				s := medium.NodeID(sent % net.N())
				d := medium.NodeID((sent*7 + 31) % net.N())
				if s != d {
					app.Send(s, d, []byte("x"))
				}
				sent++
			})
		}
		eng.RunUntil(120)
		return app.Collector().DeliveryRate()
	}
	with := run(true)
	without := run(false)
	if with <= without {
		t.Fatalf("delivery with updates (%v) should beat without (%v)", with, without)
	}
}

func TestAppUndeliveredCompletes(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(5)
	mob := &fixedModel{pos: []geo.Point{{X: 0, Y: 0}, {X: 900, Y: 900}}}
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, true)
	app := NewApp(net, loc, 512)
	rec, _ := app.Send(0, 1, []byte("x"))
	eng.RunUntil(30)
	if rec.Delivered {
		t.Fatal("unreachable destination delivered")
	}
	if app.Collector().Completed() != 1 {
		t.Fatal("record never completed")
	}
}
