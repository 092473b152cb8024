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
					if bounded.queries >= full.queries {
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
