// Fleet assembly: turn an experiment.Scenario into a set of running live
// daemons whose configuration mirrors exactly what experiment.Build would
// hand the simulator — same field, partition depth, hop budgets, medium
// parameters and crypto charging — so a live run and a sim run of the same
// scenario differ only in transport.

package live

import (
	"fmt"
	"time"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/medium"
	"alertmanet/internal/telemetry"
)

// DaemonConfigFor derives the live daemon configuration for node id from a
// scenario — the single place the sim-to-live parameter mapping lives.
func DaemonConfigFor(sc experiment.Scenario, id int, timescale float64) Config {
	par := medium.DefaultParams()
	par.LossRate = sc.LossRate
	if sc.HelloInterval > 0 {
		par.HelloInterval = sc.HelloInterval
	}
	if sc.NoARQ {
		par.Retries = 0
	}
	hmax := sc.Alert.H
	if hmax <= 0 {
		hmax = geo.PartitionsForK(sc.N, sc.Alert.K)
	}
	hopBudget := sc.Gpsr.HopBudget
	if hopBudget <= 0 {
		hopBudget = gpsr.DefaultHopBudget
	}
	legBudget := sc.Alert.LegHopBudget
	if legBudget <= 0 {
		legBudget = gpsr.DefaultHopBudget
	}
	return Config{
		ID:                 id,
		Protocol:           string(sc.Protocol),
		Field:              sc.Field,
		Seed:               sc.Seed,
		Hmax:               hmax,
		FixedAxisPartition: sc.Alert.FixedAxisPartition,
		PacketSize:         sc.PacketSize,
		HopBudget:          hopBudget,
		LegHopBudget:       legBudget,
		ChargeSessionSetup: sc.Alert.ChargeSessionSetup,
		Medium:             par,
		Timescale:          timescale,
		AckTimeout:         25 * time.Millisecond,
		QueueDepth:         512,
	}
}

// Fleet is a set of in-process daemons plus the simulator World whose
// mobility, pair choice and flow schedule the coordinator replays onto
// them (trajectory identity is what makes sim-vs-live comparison honest).
type Fleet struct {
	World   *experiment.World
	Daemons []*Daemon
}

// SpawnFleet builds the scenario's World, then one daemon per node bound
// to a loopback UDP socket, all started. On any error the partial fleet is
// torn down.
func SpawnFleet(sc experiment.Scenario, timescale float64) (*Fleet, error) {
	return SpawnFleetWithTaps(sc, timescale, nil)
}

// SpawnFleetWithTaps is SpawnFleet with per-node telemetry: tapFor (when
// non-nil) supplies each daemon's tap before it starts, so the full live
// event stream — frame tx/rx, hops, zone broadcasts, crypto charges — lands
// in per-node JSONL files a tlmgrep query can slice like a sim stream.
func SpawnFleetWithTaps(sc experiment.Scenario, timescale float64, tapFor func(id int) *telemetry.Tap) (*Fleet, error) {
	w, err := experiment.Build(sc)
	if err != nil {
		return nil, err
	}
	n := w.Mob.N()
	fl := &Fleet{World: w, Daemons: make([]*Daemon, 0, n)}
	for id := 0; id < n; id++ {
		d, err := NewDaemon(DaemonConfigFor(sc, id, timescale), "127.0.0.1:0")
		if err != nil {
			fl.Close()
			return nil, fmt.Errorf("live: spawn node %d: %w", id, err)
		}
		if tapFor != nil {
			d.SetTap(tapFor(id))
		}
		d.Start()
		fl.Daemons = append(fl.Daemons, d)
	}
	return fl, nil
}

// Handles returns the daemons a coordinator drives.
func (fl *Fleet) Handles() []*Daemon { return fl.Daemons }

// Close stops every daemon; the first error wins.
func (fl *Fleet) Close() error {
	var first error
	for _, d := range fl.Daemons {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
