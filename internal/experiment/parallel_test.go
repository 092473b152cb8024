package experiment

import (
	"runtime"
	"testing"

	"alertmanet/internal/geo"
	"alertmanet/internal/sim"
)

// TestParallelSweepsIdentical runs the same large-field scenario at
// GOMAXPROCS 1 (every construction sweep serial) and GOMAXPROCS 4 (node
// construction and mobility walker construction forked) and requires
// byte-identical Results. The field is sized above the fork floor, which the
// test asserts, so the parallel side cannot quietly fall back to serial.
// Run under -race this is also the data-race probe for every parallel
// phase, for both random-waypoint walkers and group mobility's reference
// and member walkers.
func TestParallelSweepsIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	// Three times the paper's node count at the paper's density.
	base := DefaultScenario()
	base.N = 600
	base.Field = geo.Rect{Max: geo.Point{X: 1730, Y: 1730}}
	base.Duration = 10
	base.Pairs = 8

	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"alert-rwp", func(sc *Scenario) { sc.Protocol = ALERT }},
		{"gpsr-group", func(sc *Scenario) {
			sc.Protocol = GPSR
			sc.Mobility = GroupMobility
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			tc.mut(&sc)
			runtime.GOMAXPROCS(1)
			serial, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(4)
			if !sim.Forks(sc.N) {
				t.Fatalf("N=%d does not fork at 4 CPUs; the test would compare serial with serial", sc.N)
			}
			parallel, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if resultDigest(serial) != resultDigest(parallel) {
				t.Fatalf("parallel sweeps diverged from serial:\nserial:   %+v\nparallel: %+v",
					serial, parallel)
			}
		})
	}
}
