package experiment

import (
	"testing"

	"alertmanet/internal/geo"
)

// TestEventQueueDepth: the event queue holds only work that can still act.
// Pseudonym rotation is one event for the whole network, a completed
// packet's give-up timer is cancelled, and a lossless ACK that cannot fail
// is settled as its data frame lands, so through the send horizon the
// queue never holds more than a few events per flow. With one rotation
// ticker per node and the give-up timers of completed packets still
// pending, it held over 200 at the paper default and over 3 600 on a
// 2 000-node field.
//
// The depth is sampled every sampleStep. Parked dead work stays in the
// queue for seconds (a give-up timer for CompleteTimeout, a rotation ticker
// for the whole run), so the grid sees it. A zone flood's relays keep their
// broadcasts in flight together for a few milliseconds, which is live work:
// sampled after every event, ZAP at the paper default peaks at 42 events,
// 24 of them flood broadcasts about to deliver.
func TestEventQueueDepth(t *testing.T) {
	const sampleStep = 0.01
	type run struct {
		name string
		sc   Scenario
	}
	var runs []run
	for _, proto := range goldenProtocols {
		sc := DefaultScenario()
		sc.Protocol = proto
		runs = append(runs, run{string(proto), sc})
	}
	// sim-gpsr-large's scenario (bench/sim.go): 2 000 GPSR nodes at the
	// paper's density.
	large := DefaultScenario()
	large.Protocol = GPSR
	large.N = 2000
	large.Field = geo.Rect{Max: geo.Point{X: 3162, Y: 3162}}
	large.Pairs, large.Interval, large.Duration, large.DrainTime = 50, 0.25, 20, 5
	runs = append(runs, run{"gpsr-2000", large})

	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			w, err := Build(r.sc)
			if err != nil {
				t.Fatal(err)
			}
			w.StartWorkload(w.ChoosePairs())
			peak, at := w.Eng.Pending(), 0.0
			for k := 1; float64(k)*sampleStep <= r.sc.Duration; k++ {
				if err := w.Eng.RunUntil(float64(k) * sampleStep); err != nil {
					t.Fatal(err)
				}
				if n := w.Eng.Pending(); n > peak {
					peak, at = n, w.Eng.Now()
				}
			}
			if limit := 4 * r.sc.Pairs; peak > limit {
				t.Fatalf("%d events pending at t=%.3f, limit 4·Pairs = %d", peak, at, limit)
			}
			t.Logf("peak %d events pending at t=%.3f", peak, at)
		})
	}
}
