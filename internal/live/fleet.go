// Fleet assembly: turn an experiment.Scenario into a set of running live
// daemons whose configuration is what experiment.Build would hand the
// simulator — same field, partition depth, medium parameters and crypto
// charging — so a live run and a sim run of the same scenario differ only
// in transport.

package live

import (
	"fmt"

	"alertmanet/internal/experiment"
	"alertmanet/internal/telemetry"
)

// CanRun reports why a fleet cannot run sc, or nil when it can: a fleet
// runs ALERT or GPSR over the CBR workload, and none of ALERT's
// notify-and-go, intersection guard, confirmations and NAKs. SpawnFleet
// and alertsim refuse such a scenario before anything starts.
func CanRun(sc experiment.Scenario) error {
	if err := runsProtocol(string(sc.Protocol)); err != nil {
		return err
	}
	if sc.Workload != "" && sc.Workload != experiment.CBR {
		return fmt.Errorf("live: the %s workload does not run live (live paces CBR flows)", sc.Workload)
	}
	if a := sc.Alert; sc.Protocol == experiment.ALERT && (a.NotifyAndGo || a.IntersectionGuard || a.Confirm || a.NAKs) {
		return fmt.Errorf("live: the daemon runs none of ALERT's notify-and-go, intersection guard, confirmations and NAKs")
	}
	return nil
}

// runsProtocol refuses the protocols no daemon runs: the comparators.
func runsProtocol(p string) error {
	if p != string(experiment.ALERT) && p != string(experiment.GPSR) {
		return fmt.Errorf("live: protocol %q does not run live (alert or gpsr)", p)
	}
	return nil
}

// DaemonConfigFor derives the live daemon configuration for node id from a
// scenario — the single place the sim-to-live parameter mapping lives; the
// channel's comes from Scenario.MediumParams and the partition depth from
// core.Config.Depth, as the simulator's do.
func DaemonConfigFor(sc experiment.Scenario, id int, timescale float64) Config {
	return Config{
		ID:                 id,
		Protocol:           string(sc.Protocol),
		Field:              sc.Field,
		Seed:               sc.Seed,
		Hmax:               sc.Alert.Depth(sc.N),
		FixedAxisPartition: sc.Alert.FixedAxisPartition,
		ChargeSessionSetup: sc.Alert.ChargeSessionSetup,
		Medium:             sc.MediumParams(),
		Timescale:          timescale,
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
// to a loopback UDP socket, all started. A scenario CanRun refuses is an
// error before anything is built; on any later error the partial fleet is
// torn down.
func SpawnFleet(sc experiment.Scenario, timescale float64) (*Fleet, error) {
	return SpawnFleetWithTaps(sc, timescale, nil)
}

// SpawnFleetWithTaps is SpawnFleet with per-node telemetry: tapFor (when
// non-nil) supplies each daemon's tap before it starts, so the full live
// event stream — frame tx/rx, hops, zone broadcasts, crypto charges — lands
// in per-node JSONL files a tlmgrep query can slice like a sim stream.
func SpawnFleetWithTaps(sc experiment.Scenario, timescale float64, tapFor func(id int) *telemetry.Tap) (*Fleet, error) {
	if err := CanRun(sc); err != nil {
		return nil, err
	}
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
