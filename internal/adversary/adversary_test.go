package adversary

import (
	"math"
	"testing"

	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

var field = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

type pinned struct{ pos []geo.Point }

func (p *pinned) Position(id int, _ float64) geo.Point { return p.pos[id] }
func (p *pinned) N() int                               { return len(p.pos) }
func (p *pinned) Field() geo.Rect                      { return field }
func (p *pinned) MaxSpeed() float64                    { return 0 }

func mkMedium(pos ...geo.Point) (*sim.Engine, *medium.Medium) {
	eng := sim.NewEngine()
	med := medium.MustNew(eng, &pinned{pos: pos}, medium.DefaultParams(), rng.New(1))
	return eng, med
}

func attach(med *medium.Medium, n int) {
	for i := 0; i < n; i++ {
		med.Attach(medium.NodeID(i), func(medium.NodeID, any, int) {})
	}
}

func TestObserverVicinityFilter(t *testing.T) {
	eng, med := mkMedium(
		geo.Point{X: 100, Y: 100}, geo.Point{X: 150, Y: 100}, // near the observer
		geo.Point{X: 900, Y: 900}, geo.Point{X: 950, Y: 900}, // far away
	)
	attach(med, 4)
	obs := NewObserver(med, geo.Point{X: 100, Y: 100}, 250)
	med.Unicast(0, 1, "near", 64)
	med.Unicast(2, 3, "far", 64)
	eng.Run()
	if len(obs.Transmissions) != 1 {
		t.Fatalf("observer saw %d transmissions, want 1", len(obs.Transmissions))
	}
	if obs.Transmissions[0].From != 0 {
		t.Fatal("observer saw the wrong transmission")
	}
	if len(obs.Receptions) != 1 || obs.Receptions[0].To != 1 {
		t.Fatalf("receptions = %v", obs.Receptions)
	}
}

func TestDistinctSendersWindow(t *testing.T) {
	eng, med := mkMedium(
		geo.Point{X: 100, Y: 100}, geo.Point{X: 120, Y: 100},
		geo.Point{X: 140, Y: 100}, geo.Point{X: 160, Y: 100},
	)
	attach(med, 4)
	obs := NewObserver(med, geo.Point{X: 120, Y: 100}, 250)
	// Three different senders inside the window, one outside it.
	eng.At(1.0, func() { med.Broadcast(0, "c0", 16) })
	eng.At(1.002, func() { med.Broadcast(1, "c1", 16) })
	eng.At(1.004, func() { med.Broadcast(2, "real", 512) })
	eng.At(5.0, func() { med.Broadcast(3, "late", 16) })
	eng.Run()
	if got := obs.DistinctSenders(0.9, 1.1); got != 3 {
		t.Fatalf("DistinctSenders = %d, want 3", got)
	}
	if got := obs.DistinctSenders(0, 10); got != 4 {
		t.Fatalf("full-window senders = %d, want 4", got)
	}
}

func TestTimingCorrelatorFixedDelay(t *testing.T) {
	var c TimingCorrelator
	for i := 0; i < 20; i++ {
		s := float64(i) * 2
		c.AddSend(s)
		c.AddRecv(s + 5.0) // the paper's fixed 5-second signature
	}
	if score := c.Score(0.1); score < 0.95 {
		t.Fatalf("fixed-delay score = %v, want ~1", score)
	}
}

func TestTimingCorrelatorRandomDelay(t *testing.T) {
	src := rng.New(7)
	var c TimingCorrelator
	for i := 0; i < 200; i++ {
		s := float64(i) * 2
		c.AddSend(s)
		c.AddRecv(s + src.Uniform(0.05, 1.95))
	}
	fixed := func() float64 {
		var f TimingCorrelator
		for i := 0; i < 200; i++ {
			s := float64(i) * 2
			f.AddSend(s)
			f.AddRecv(s + 1.0)
		}
		return f.Score(0.02)
	}()
	random := c.Score(0.02)
	if random >= fixed {
		t.Fatalf("random delays (%v) should score below fixed (%v)", random, fixed)
	}
	if random > 0.5 {
		t.Fatalf("random-delay score %v suspiciously high", random)
	}
}

func TestTimingCorrelatorEdgeCases(t *testing.T) {
	var c TimingCorrelator
	if c.Score(0.1) != 0 {
		t.Fatal("empty correlator should score 0")
	}
	c.AddSend(1)
	if c.Score(0.1) != 0 {
		t.Fatal("no receptions should score 0")
	}
	c.AddRecv(0.5) // before the send: no follow-up arrival
	if c.Score(0.1) != 0 {
		t.Fatal("arrival before departure should not match")
	}
	c.AddRecv(2)
	if c.Score(0) != 0 {
		t.Fatal("zero tolerance should score 0")
	}
}

func TestInterceptionProbability(t *testing.T) {
	var r RouteTracker
	r.AddRoute([]medium.NodeID{1, 2, 3})
	r.AddRoute([]medium.NodeID{4, 5, 6})
	r.AddRoute([]medium.NodeID{2, 7})
	if r.Routes() != 3 {
		t.Fatal("Routes wrong")
	}
	if p := r.InterceptionProbability([]medium.NodeID{2}); !closeTo(p, 2.0/3, 1e-9) {
		t.Fatalf("interception = %v, want 2/3", p)
	}
	if p := r.InterceptionProbability([]medium.NodeID{9}); p != 0 {
		t.Fatalf("interception = %v, want 0", p)
	}
	if p := r.InterceptionProbability(nil); p != 0 {
		t.Fatal("no compromised nodes should intercept nothing")
	}
	var empty RouteTracker
	if empty.InterceptionProbability([]medium.NodeID{1}) != 0 {
		t.Fatal("empty tracker should report 0")
	}
}

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRouteEntropy(t *testing.T) {
	// Same relays every time: entropy = log2(#relays) of one route.
	var fixed RouteTracker
	for i := 0; i < 10; i++ {
		fixed.AddRoute([]medium.NodeID{1, 2, 3})
	}
	if e := fixed.RouteEntropy(); !closeTo(e, math.Log2(3), 1e-9) {
		t.Fatalf("fixed-route entropy = %v, want log2(3)", e)
	}
	// Fresh relays every time: entropy grows with the pool.
	var random RouteTracker
	for i := 0; i < 10; i++ {
		random.AddRoute([]medium.NodeID{
			medium.NodeID(i * 3), medium.NodeID(i*3 + 1), medium.NodeID(i*3 + 2),
		})
	}
	if random.RouteEntropy() <= fixed.RouteEntropy() {
		t.Fatal("diverse routes should have higher entropy")
	}
	var empty RouteTracker
	if empty.RouteEntropy() != 0 {
		t.Fatal("empty tracker entropy should be 0")
	}
}
