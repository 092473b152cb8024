package medium

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"alertmanet/internal/geo"
	"alertmanet/internal/mobility"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

// sweepModel forwards to a model and counts its Position queries; with
// unbounded set it reports no speed bound, so the broadcast sweep prunes
// nothing.
type sweepModel struct {
	mobility.Model
	unbounded bool
	queries   int
}

func (m *sweepModel) Position(id int, t float64) geo.Point {
	m.queries++
	return m.Model.Position(id, t)
}

func (m *sweepModel) MaxSpeed() float64 {
	if m.unbounded {
		return math.Inf(1)
	}
	return m.Model.MaxSpeed()
}

// ringModel puts node 0 at the field's centre and walks nodes 1..ring
// radially through the edge of its range: node i starts at radius
// Range+1 − 2(i−1)/(ring−1) and moves outward (odd i) or inward at
// ringSpeed. The remaining nodes stand 400 m out, where the sweep prunes
// them.
type ringModel struct{ n, ring int }

const ringSpeed = 0.05

func (r *ringModel) Position(id int, t float64) geo.Point {
	c := geo.Point{X: 500, Y: 500}
	if id == 0 {
		return c
	}
	angle := 2 * math.Pi * float64(id) / float64(r.n)
	radius := 400.0
	if id <= r.ring {
		radius = DefaultParams().Range + 1 - 2*float64(id-1)/float64(r.ring-1)
		if id%2 == 1 {
			radius += ringSpeed * t
		} else {
			radius -= ringSpeed * t
		}
	}
	return geo.Point{X: c.X + radius*math.Cos(angle), Y: c.Y + radius*math.Sin(angle)}
}
func (r *ringModel) N() int            { return r.n }
func (r *ringModel) Field() geo.Rect   { return field }
func (r *ringModel) MaxSpeed() float64 { return ringSpeed }

// tightRing is a static world around node 0 at the field's centre: nodes
// exactly Range away along both axes, nodes at Range·(1±1e-12), and nodes
// on the range circle nudged a few math.Nextafter steps either way, kept
// where the squared distance and the distance disagree about Range (about
// one nudge in twenty).
func tightRing() *fixedModel {
	c := geo.Point{X: 500, Y: 500}
	r := DefaultParams().Range
	pos := []geo.Point{c, {X: c.X + r, Y: c.Y}, {X: c.X - r, Y: c.Y}, {X: c.X, Y: c.Y + r}, {X: c.X, Y: c.Y - r}}
	for i := 0; i < 60; i++ {
		theta := 2 * math.Pi * float64(i) / 60
		for _, f := range []float64{1 + 1e-12, 1 - 1e-12} {
			pos = append(pos, geo.Point{X: c.X + r*f*math.Cos(theta), Y: c.Y + r*f*math.Sin(theta)})
		}
	}
	for i := 0; i < 1000; i++ {
		theta := 2 * math.Pi * float64(i) / 1000
		for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
			p := geo.Point{X: c.X + r*math.Cos(theta), Y: c.Y + r*math.Sin(theta)}
			for step := 0; step < 4; step++ {
				if (c.Dist2(p) < r*r) != (c.Dist(p) <= r) {
					pos = append(pos, p)
				}
				if step%2 == 0 {
					p.X = math.Nextafter(p.X, dir)
				} else {
					p.Y = math.Nextafter(p.Y, dir)
				}
			}
		}
	}
	return &fixedModel{pos: pos}
}

// sweepRun is what one run of sweepWorld exposes to the comparison.
type sweepRun struct {
	receptions []sweepRx
	// inRange lists, per delivery in time order, every node the model puts
	// within Range of the sender: the receptions a lossless channel must
	// produce, found without the sweep.
	inRange   []sweepRx
	counters  Counters
	later     [4]uint64 // the medium stream's next draws after the run
	queries   int
	nearRange int // receptions within a metre inside Range
}

type sweepRx struct {
	at       float64
	from, to NodeID
}

// sweepWorld runs 300 broadcasts over mob, from random senders at random
// times, plus one delivered exactly at each of the first 20 beacon
// instants (where now − beacon time is 0, and an unbounded speed times 0
// is NaN). The schedule depends only on seed, not on the model's bound.
func sweepWorld(mob *sweepModel, hello, loss float64, senders int, seed int64) sweepRun {
	par := DefaultParams()
	par.HelloInterval = hello
	par.LossRate = loss
	eng := sim.NewEngine()
	med := MustNew(eng, mob, par, rng.New(seed))
	var run sweepRun
	for id := 0; id < mob.N(); id++ {
		to := NodeID(id)
		med.Attach(to, func(from NodeID, _ any, _ int) {
			now := eng.Now()
			run.receptions = append(run.receptions, sweepRx{now, from, to})
			d := mob.Model.Position(int(from), now).Dist(mob.Model.Position(int(to), now))
			if d > par.Range-1 {
				run.nearRange++
			}
		})
	}
	var deliveries []sweepRx
	draw := rng.New(seed).Split("schedule")
	const horizon = 60.0
	for k := 0; k < 300; k++ {
		at, from := draw.Uniform(0, horizon), NodeID(draw.Intn(senders))
		eng.At(at, func() {
			deliveries = append(deliveries, sweepRx{med.Broadcast(from, "frame", 512), from, BroadcastID})
		})
	}
	for k := 1; k <= 20; k++ {
		at, from := float64(k)*hello, NodeID(draw.Intn(senders))
		deliveries = append(deliveries, sweepRx{at, from, BroadcastID})
		eng.AtRunner(at, &bcastSend{m: med, from: from, payload: "beacon-instant", size: 512})
	}
	eng.Run()
	slices.SortStableFunc(deliveries, func(a, b sweepRx) int { return cmp.Compare(a.at, b.at) })
	for _, d := range deliveries {
		pf := mob.Model.Position(int(d.from), d.at)
		for id := 0; id < mob.N(); id++ {
			if NodeID(id) != d.from && pf.Within(mob.Model.Position(id, d.at), par.Range) {
				run.inRange = append(run.inRange, sweepRx{d.at, d.from, NodeID(id)})
			}
		}
	}
	run.counters = med.Counters()
	for i := range run.later {
		run.later[i] = med.src.Uint64()
	}
	run.queries = mob.queries
	return run
}

// TestBroadcastPrefilterExact runs each world twice, once with its model's
// speed bound and once with none, and requires the same receptions in the
// same order, equal counters and equal later draws from the medium's
// stream, while the bounded run asks the model for fewer positions. On a
// lossless channel the receptions must also be exactly the nodes in range
// at each delivery.
func TestBroadcastPrefilterExact(t *testing.T) {
	models := []struct {
		name    string
		build   func() mobility.Model
		senders int
	}{
		{"rwp-2", func() mobility.Model { return mobility.NewRandomWaypoint(field, 60, 2, nil, rng.New(81)) }, 60},
		{"rwp-8", func() mobility.Model { return mobility.NewRandomWaypoint(field, 60, 8, nil, rng.New(82)) }, 60},
		{"group", func() mobility.Model { return mobility.NewGroupMobility(field, 60, 4, 300, 8, nil, rng.New(83)) }, 60},
		{"static", func() mobility.Model { return mobility.NewStatic(field, 60, rng.New(84)) }, 60},
		// Only node 0 sends, so every ring node is within a metre of Range.
		{"ring", func() mobility.Model { return &ringModel{n: 50, ring: 40} }, 1},
		{"tight", func() mobility.Model { return tightRing() }, 1},
	}
	// The tight ring must hold nodes whose squared distance to node 0 lies
	// under Range² while their distance exceeds Range: the inner radius
	// must keep its slack to send those to the exact test.
	tight, discord := tightRing(), 0
	for _, p := range tight.pos[1:] {
		r := DefaultParams().Range
		if tight.pos[0].Dist2(p) < r*r && tight.pos[0].Dist(p) > r {
			discord++
		}
	}
	if discord == 0 {
		t.Fatal("tight ring: no node where Dist2 and Dist disagree about Range")
	}
	for _, mc := range models {
		for _, hello := range []float64{0.3, 1, 2.5} {
			for _, loss := range []float64{0, 0.2} {
				t.Run(fmt.Sprintf("%s/hello=%g/loss=%g", mc.name, hello, loss), func(t *testing.T) {
					bounded := sweepWorld(&sweepModel{Model: mc.build()}, hello, loss, mc.senders, 85)
					full := sweepWorld(&sweepModel{Model: mc.build(), unbounded: true}, hello, loss, mc.senders, 85)
					if !reflect.DeepEqual(bounded.receptions, full.receptions) {
						t.Errorf("%d receptions, %d without the prefilter, or in another order",
							len(bounded.receptions), len(full.receptions))
					}
					if loss == 0 && !reflect.DeepEqual(bounded.receptions, bounded.inRange) {
						t.Errorf("%d receptions, %d nodes in range at delivery, or in another order",
							len(bounded.receptions), len(bounded.inRange))
					}
					if bounded.counters != full.counters {
						t.Errorf("counters %+v, without the prefilter %+v", bounded.counters, full.counters)
					}
					if bounded.later != full.later {
						t.Error("the medium stream drew differently after the run")
					}
					if bounded.queries >= full.queries && mc.name != "tight" {
						t.Errorf("%d Position queries, %d without the prefilter: nothing was pruned",
							bounded.queries, full.queries)
					}
					if mc.name == "ring" && bounded.nearRange == 0 {
						t.Error("no reception within a metre of Range")
					}
				})
			}
		}
	}
}

// TestBroadcastSweepDecidesFromBeacons counts the Position queries a sweep
// makes for its receivers at the paper default (200 random-waypoint nodes
// at 2 m/s, 1 s hello): the inner radius decides almost every in-range
// node from its beacon, so fewer than one receiver per sweep is asked,
// while an unbounded speed asks all 199. Both runs deliver the same
// receptions.
func TestBroadcastSweepDecidesFromBeacons(t *testing.T) {
	run := func(unbounded bool) (perSweep float64, rx []sweepRx) {
		mob := &sweepModel{Model: mobility.NewRandomWaypoint(field, 200, 2, nil, rng.New(86)), unbounded: unbounded}
		par := DefaultParams()
		par.MACDelayMean = 0 // a known delivery instant, primed below
		eng := sim.NewEngine()
		med := MustNew(eng, mob, par, rng.New(87))
		for id := 0; id < mob.N(); id++ {
			to := NodeID(id)
			med.Attach(to, func(from NodeID, _ any, _ int) { rx = append(rx, sweepRx{eng.Now(), from, to}) })
		}
		const sweeps = 300
		asked := 0
		draw := rng.New(88)
		for k := 0; k < sweeps; k++ {
			t0, from := float64(k)*0.37, NodeID(draw.Intn(mob.N()))
			at := t0 + float64(512*8)/par.Bitrate
			before := 0
			// Runs at the delivery instant ahead of the sweep: the snapshot
			// is built, so the sweep's own queries are the sender's and the
			// receivers' it could not decide.
			eng.At(at, func() { med.beaconsNow(); before = mob.queries })
			eng.At(t0, func() {
				med.Broadcast(from, "frame", 512)
				eng.At(at, func() { asked += mob.queries - before - 1 })
			})
		}
		eng.Run()
		return float64(asked) / sweeps, rx
	}
	bounded, rxBounded := run(false)
	full, rxFull := run(true)
	if !reflect.DeepEqual(rxBounded, rxFull) {
		t.Errorf("%d receptions, %d with an unbounded speed, or in another order", len(rxBounded), len(rxFull))
	}
	if bounded >= 1 {
		t.Errorf("%.2f receiver Position queries per sweep, want under 1", bounded)
	}
	if full != 199 {
		t.Errorf("%.2f receiver Position queries per sweep with an unbounded speed, want 199", full)
	}
	t.Logf("receiver Position queries per sweep: %.3f (unbounded speed: %.0f); %d receptions", bounded, full, len(rxBounded))
}
