package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/live"
	"alertmanet/internal/mobility"
	"alertmanet/internal/rng"
)

// liveSpec is an open-loop live workload: a fleet of in-process daemons
// exchanging real UDP datagrams over loopback while the coordinator paces
// the flows on wall-clock timers, whether or not the fleet keeps up.
type liveSpec struct {
	seeds               int // traffic seeds per invocation, each repeated
	nodes, pairs        int
	field               float64 // side of the square field, m
	duration, drain     float64 // emulated seconds
	interval, timescale float64
}

// liveLoopback is 50 ALERT daemons on a static 600 m field, 20 pairs at 10
// packets/s each, 3 s plus a 1 s drain at timescale 0.2: 1000 packets/s of
// wall time while sending, about 140 datagrams each, which keeps about one
// of two CPUs busy. (At timescale 0.1 two shared CPUs fall behind and
// packets go unsent.) Runs are short so that each of the three traffic
// seeds repeats three or more times in 15 s.
var liveLoopback = liveSpec{
	seeds: 3, nodes: 50, pairs: 20, field: 600,
	duration: 3, drain: 1, interval: 0.1, timescale: 0.2,
}

// layoutSeed draws the fleet's node placement. The placement is the same
// for every --seed, which varies the traffic (pairs, send offsets, keys,
// forwarder choices): with a placement per seed, the datagrams one packet
// costs differ up to 1.6x between seeds and swamp any change in the data
// plane's own cost.
const layoutSeed = 1

// writeLayout writes the fleet's placement to a file in dir as an NS-2
// trace of stationary nodes, the form in which a Scenario takes a given
// placement. The caller removes the file.
func (l liveSpec) writeLayout(dir string) (string, error) {
	st := mobility.NewStatic(l.rect(), l.nodes, rng.New(layoutSeed))
	var b strings.Builder
	for i := 0; i < l.nodes; i++ {
		p := st.Position(i, 0)
		fmt.Fprintf(&b, "$node_(%d) set X_ %s\n$node_(%d) set Y_ %s\n",
			i, strconv.FormatFloat(p.X, 'f', -1, 64), i, strconv.FormatFloat(p.Y, 'f', -1, 64))
	}
	f, err := os.CreateTemp(dir, "live-layout-*.ns2")
	if err != nil {
		return "", err
	}
	if _, err := f.WriteString(b.String()); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), f.Close()
}

func (l liveSpec) rect() geo.Rect { return geo.Rect{Max: geo.Point{X: l.field, Y: l.field}} }

// scenario is the fleet's scenario for one seed on the layout file.
func (l liveSpec) scenario(seed int64, layout string) experiment.Scenario {
	sc := experiment.DefaultScenario()
	sc.Seed = seed
	sc.N = l.nodes
	sc.Field = l.rect()
	sc.Mobility = experiment.NS2Trace
	sc.NS2TracePath = layout
	sc.Duration = l.duration
	sc.DrainTime = l.drain
	sc.Pairs = l.pairs
	sc.Interval = l.interval
	sc.LocUpdates = false
	return sc
}

// liveRun is one fleet run.
type liveRun struct {
	seed       int64
	expected   int // packets the flow schedule sends
	spawn, run time.Duration
	cpu        time.Duration // process CPU during Coordinator.Run
	lateness   time.Duration // Run wall time beyond its paced length
	sum        live.Summary
	heap       float64 // MiB held after Run with the fleet still up, when asked for
}

// liveOnce spawns a fleet, runs the coordinator over it and tears it down.
// The expected sends come from a separate World of the same scenario, the
// way live.DeriveFlows derives the coordinator's own schedule. With
// measureHeap the fleet's heap is read after Run, before teardown.
func liveOnce(sc experiment.Scenario, timescale float64, tr *tracer, measureHeap bool) (liveRun, error) {
	r := liveRun{seed: sc.Seed}
	root := tr.beginRun("live.run")
	defer tr.end(root)

	id := tr.begin("experiment.Build", root)
	w, err := experiment.Build(sc)
	tr.end(id)
	if err != nil {
		return r, err
	}
	id = tr.begin("live.DeriveFlows", root)
	flows, _, err := live.DeriveFlows(w)
	tr.end(id)
	if err != nil {
		return r, err
	}
	for _, f := range flows {
		r.expected += f.Packets
	}

	t0 := time.Now()
	id = tr.begin("live.SpawnFleet", root)
	fl, err := live.SpawnFleet(sc, timescale)
	tr.end(id)
	if err != nil {
		return r, err
	}
	r.spawn = time.Since(t0)
	coord := live.NewCoordinator(fl.World, fl.Handles(), timescale)
	cpu0 := cpuTime()
	t0 = time.Now()
	id = tr.begin("live.Coordinator.Run", root)
	r.sum, err = coord.Run()
	tr.end(id)
	r.run = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	paced := time.Duration((sc.Duration+sc.DrainTime)*timescale*float64(time.Second)) + coord.Slack
	r.lateness = r.run - paced
	if measureHeap && err == nil {
		r.heap = liveHeapMB()
		runtime.KeepAlive(fl)
	}

	id = tr.begin("live.Fleet.Close", root)
	cerr := fl.Close()
	tr.end(id)
	if err != nil {
		return r, err
	}
	return r, cerr
}

// livePass runs fleets on seeds base..base+seeds-1 in passes (see
// repeat), reading the heap on the first run. A packet the schedule owed
// but the fleet did not send counts as failed.
func livePass(spec liveSpec, layout string, base int64, dur time.Duration, tr *tracer, rep *report) ([]liveRun, error) {
	var runs []liveRun
	err := repeat(spec.seeds, dur, func(i int) error {
		seed := base + int64(i)
		r, err := liveOnce(spec.scenario(seed, layout), spec.timescale, tr, len(runs) == 0)
		if err != nil {
			return err
		}
		rep.attempted += r.expected
		if short := r.expected - r.sum.Sent; short > 0 {
			rep.failed += short
		}
		if r.sum.Sent > r.expected || r.sum.Delivered > r.sum.Sent {
			rep.gate("seed %d: sent %d and delivered %d against %d scheduled", seed, r.sum.Sent, r.sum.Delivered, r.expected)
		}
		runs = append(runs, r)
		return nil
	})
	return runs, err
}

// liveSamples are the fleet runs' timings, one input per seed; CPU is the
// process's during Coordinator.Run.
func liveSamples(runs []liveRun) []sample {
	out := make([]sample, len(runs))
	for i, r := range runs {
		out[i] = sample{input: r.seed, wall: r.run, cpu: r.cpu, sent: r.sum.Sent, delivered: r.sum.Delivered}
	}
	return out
}

// runLive drives the live workload.
func runLive(spec liveSpec, e env) (*report, error) {
	rep := newReport()
	layout, err := spec.writeLayout(e.workDir)
	if err != nil {
		return nil, err
	}
	defer os.Remove(layout)
	runs, err := livePass(spec, layout, e.seed, e.dur, nil, rep)
	if err != nil {
		return nil, err
	}
	costMetrics(rep, liveSamples(runs))
	rep.values["run_ms"] = runMS(liveSamples(runs))
	var walls, spawns, late []float64
	var cpu time.Duration
	var datagrams uint64
	for _, r := range runs {
		walls = append(walls, ms(r.run))
		spawns = append(spawns, secs(r.spawn))
		late = append(late, ms(r.lateness))
		cpu += r.cpu
		datagrams += r.sum.Counters.TxDatagrams
	}
	rep.values["setup_s"] = medianOf(spawns)
	rep.values["heap_mb"] = one(runs[0].heap)
	// How late the open-loop generator ran, and the cost per datagram
	// (which, unlike the cost per packet, does not depend on path lengths).
	rep.notes = append(rep.notes, fmt.Sprintf("%d fleet runs of %d nodes over %d seeds", len(runs), spec.nodes, spec.seeds),
		tailNote("run ms, every repetition", walls),
		tailNote("march lateness ms (run beyond its paced length)", late),
		fmt.Sprintf("cpu per datagram %.3f us over %d datagrams", ratio(us(cpu), float64(datagrams)), datagrams))
	if !e.trace {
		return rep, nil
	}

	var traced []liveRun
	var perr error
	ph, err := tracedPhase(e.outDir, rep, func(tr *tracer) {
		traced, perr = livePass(spec, layout, e.seed, e.dur, tr, rep)
	})
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	ph.fill(rep)
	var c live.Counters
	sent := 0
	for _, r := range traced {
		sent += r.sum.Sent
		k := r.sum.Counters
		c.TxDatagrams += k.TxDatagrams
		c.Retries += k.Retries
		c.RxDropsFull += k.RxDropsFull
		c.DecodeErrors += k.DecodeErrors
		c.Forwarded += k.Forwarded
		c.PerimeterEntries += k.PerimeterEntries
		c.ZoneBroadcasts += k.ZoneBroadcasts
	}
	per := func(n uint64) value { return one(ratio(float64(n), float64(sent))) }
	rep.values["live.datagrams_per_packet"] = per(c.TxDatagrams)
	rep.values["live.retries_per_frame"] = one(ratio(float64(c.Retries), float64(c.TxDatagrams)))
	rep.values["live.rx_drops_full"] = one(float64(c.RxDropsFull))
	rep.values["live.decode_errors"] = one(float64(c.DecodeErrors))
	rep.values["gpsr.hops_per_packet"] = per(c.Forwarded)
	rep.values["gpsr.perimeter_entries_per_packet"] = per(c.PerimeterEntries)
	rep.values["core.zone_broadcasts_per_packet"] = per(c.ZoneBroadcasts)
	rep.values["runtime.allocs_per_packet"] = one(ratio(float64(ph.allocs), float64(sent)))
	rep.values["tracing.overhead_pct"] = one(100 * (cpuPerPacket(liveSamples(traced))/cpuPerPacket(liveSamples(runs)) - 1))

	// The fleet makes none of the simulator's calls; the experiment and
	// campaign layers are timed on the same scenario simulated.
	sc := func(seed int64) experiment.Scenario { return spec.scenario(seed, layout) }
	if err := experimentProbe(sc(e.seed), rep); err != nil {
		return nil, err
	}
	if err := campaignProbe(sc, e.seed, e, rep); err != nil {
		return nil, err
	}
	over, err := telemetryOverhead(sc, spec.seeds, e.seed, e.dur/3)
	if err != nil {
		return nil, err
	}
	rep.values["telemetry.overhead_pct"] = one(over)
	pw, err := buildProbeWorld(sc(e.seed))
	if err != nil {
		return nil, err
	}
	if err := probeLayers(pw, e, rep); err != nil {
		return nil, err
	}
	rep.setLayers()
	return rep, nil
}
