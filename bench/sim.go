package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"alertmanet/internal/core"
	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/node"
	"alertmanet/internal/telemetry"
)

// goldenRunsPath is the per-protocol golden corpus of paper-default runs.
const goldenRunsPath = "internal/experiment/testdata/golden.json"

// simSpec is a closed-loop simulation workload: one scenario family run
// over seeds base..base+seeds-1, pass after pass, one run after another.
type simSpec struct {
	seeds    int
	scenario func(seed int64) experiment.Scenario
	// golden names the golden.json entry whose paper-default run (seed 1)
	// is the untimed warm-up and the first correctness gate.
	golden experiment.ProtocolName
}

// simAlert is the paper default: ALERT, 200 nodes, random waypoint at
// 2 m/s, 10 CBR pairs, 100 s plus a 10 s drain. Zone broadcast, crypto and
// partitioning dominate its cost. A run's cost differs by about 12% from
// seed to seed; forty seeds average that out while a 15 s run still
// repeats each seed about five times.
var simAlert = simSpec{
	seeds: 40,
	scenario: func(seed int64) experiment.Scenario {
		sc := experiment.DefaultScenario()
		sc.Seed = seed
		return sc
	},
	golden: experiment.ALERT,
}

// simGPSRLarge is plain GPSR on 2000 nodes at the paper's density (3162 m
// square), 50 pairs sending every 0.25 s for 20 s plus a 5 s drain: a deep
// event heap, a large beacon grid and mobility at scale. ALERT's core and
// crypto do no work here, so a change to them must leave it unchanged.
var simGPSRLarge = simSpec{
	seeds: 8,
	scenario: func(seed int64) experiment.Scenario {
		sc := experiment.DefaultScenario()
		sc.Seed = seed
		sc.Protocol = experiment.GPSR
		sc.N = 2000
		sc.Field = geo.Rect{Max: geo.Point{X: 3162, Y: 3162}}
		sc.Pairs = 50
		sc.Interval = 0.25
		sc.Duration = 20
		sc.DrainTime = 5
		return sc
	},
	golden: experiment.GPSR,
}

// simRun is one Build→Collect run and the layer counters it left.
type simRun struct {
	seed   int64
	build  time.Duration
	wall   time.Duration
	cpu    time.Duration
	res    experiment.Result
	events uint64
	med    medium.Counters
	router gpsr.Counters
	core   core.Counters
	loc    locservice.Counters
	ops    node.CryptoOps
}

// resultDigest is the golden corpus's fingerprint of a Result.
func resultDigest(r experiment.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:])
}

// simOnce runs one scenario through the public harness sequence, timing
// the Build→Collect span, and checks the run's own invariants: every
// packet finished, and every GPSR routing attempt ended in exactly one
// terminal outcome.
func simOnce(sc experiment.Scenario, tr *tracer) (simRun, error) {
	root := tr.beginRun("sim.run")
	defer tr.end(root)
	r := simRun{seed: sc.Seed}
	cpu0 := cpuTime()
	t0 := time.Now()

	id := tr.begin("experiment.Build", root)
	w, err := experiment.Build(sc)
	tr.end(id)
	if err != nil {
		return r, err
	}
	r.build = time.Since(t0)

	id = tr.begin("experiment.StartWorkload", root)
	pairs := w.ChoosePairs()
	w.StartWorkload(pairs)
	tr.end(id)

	id = tr.begin("experiment.Drain", root)
	err = w.Drain()
	tr.end(id)
	if err != nil {
		return r, err
	}

	id = tr.begin("experiment.Collect", root)
	r.res = w.Collect(pairs)
	tr.end(id)
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0

	if u := w.Proto.Collector().Unfinished(); u != 0 {
		return r, fmt.Errorf("seed %d: %d packets unfinished after the drain", sc.Seed, u)
	}
	if rt := w.Router(); rt != nil {
		c := rt.Counters()
		if end := c.Delivered + c.ArrivedClosest + c.DroppedTTL + c.DroppedDeadEnd + c.DroppedLink; c.Sent != end {
			return r, fmt.Errorf("seed %d: GPSR conservation broken: sent %d, terminal outcomes %d", sc.Seed, c.Sent, end)
		}
		r.router = c
	}
	if w.Alert != nil {
		r.core = w.Alert.Counters()
	}
	r.events = w.Eng.Processed()
	r.med = w.Med.Counters()
	r.loc = w.Loc.Counters()
	r.ops = w.Net.Ops
	return r, nil
}

// simPass runs the workload's seeds in passes (see repeat). A run that
// fails a gate, or whose result differs from an earlier run of its seed,
// is recorded on rep and counted as failed.
func simPass(spec simSpec, base int64, dur time.Duration, tr *tracer, rep *report) []simRun {
	var runs []simRun
	digests := map[int64]string{}
	// Gate failures are recorded, not returned: the run goes on.
	_ = repeat(spec.seeds, dur, func(i int) error {
		sc := spec.scenario(base + int64(i))
		rep.attempted++
		r, err := simOnce(sc, tr)
		if err != nil {
			rep.failed++
			rep.gate("%v", err)
			return nil
		}
		d := resultDigest(r.res)
		if prev, ok := digests[sc.Seed]; ok && prev != d {
			rep.failed++
			rep.gate("seed %d: result changed between repetitions", sc.Seed)
			return nil
		}
		digests[sc.Seed] = d
		runs = append(runs, r)
		return nil
	})
	return runs
}

// simSamples are the runs' timings, one input per seed.
func simSamples(runs []simRun) []sample {
	out := make([]sample, len(runs))
	for i, r := range runs {
		out[i] = sample{input: r.seed, wall: r.wall, cpu: r.cpu, sent: r.res.Sent, delivered: r.res.Delivered}
	}
	return out
}

// goldenDigest reads one protocol's result digest from golden.json.
func goldenDigest(root string, proto experiment.ProtocolName) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, goldenRunsPath))
	if err != nil {
		return "", err
	}
	var corpus map[string]struct {
		ResultDigest string `json:"result_digest"`
	}
	if err := json.Unmarshal(b, &corpus); err != nil {
		return "", fmt.Errorf("parse %s: %w", goldenRunsPath, err)
	}
	e, ok := corpus[string(proto)]
	if !ok {
		return "", fmt.Errorf("%s has no %q entry", goldenRunsPath, proto)
	}
	return e.ResultDigest, nil
}

// runSim drives a simulation workload: an untimed golden warm-up, the
// measured passes, and when tracing, a second traced set of passes plus
// the probes and the telemetry comparison.
func runSim(spec simSpec, e env) (*report, error) {
	rep := newReport()
	want, err := goldenDigest(e.root, spec.golden)
	if err != nil {
		return nil, err
	}
	sc := experiment.DefaultScenario()
	sc.Protocol = spec.golden
	res, err := experiment.Run(sc)
	if err != nil {
		return nil, err
	}
	rep.attempted++
	if got := resultDigest(res); got != want {
		rep.failed++
		rep.gate("golden %s run: digest %s, golden.json has %s", spec.golden, got, want)
	}

	// The heap is read before the measured runs accumulate their records.
	heap, err := simHeapMB(spec.scenario(e.seed))
	if err != nil {
		return nil, err
	}
	runs := simPass(spec, e.seed, e.dur, nil, rep)
	if len(runs) == 0 {
		return nil, fmt.Errorf("every run failed: %s", rep.gateErrs[0])
	}
	simEndToEnd(runs, rep)
	rep.values["heap_mb"] = one(heap)
	if !e.trace {
		return rep, nil
	}

	var traced []simRun
	ph, err := tracedPhase(e.outDir, rep, func(tr *tracer) {
		traced = simPass(spec, e.seed, e.dur, tr, rep)
	})
	if err != nil {
		return nil, err
	}
	simLayers(traced, ph, rep)
	rep.values["tracing.overhead_pct"] = one(100 * (cpuPerPacket(simSamples(traced))/cpuPerPacket(simSamples(runs)) - 1))
	pw, err := buildProbeWorld(spec.scenario(e.seed))
	if err != nil {
		return nil, err
	}
	if err := probeLayers(pw, e, rep); err != nil {
		return nil, err
	}
	if err := campaignProbe(spec.scenario, e.seed, e, rep); err != nil {
		return nil, err
	}
	over, err := telemetryOverhead(spec.scenario, spec.seeds, e.seed, e.dur/3)
	if err != nil {
		return nil, err
	}
	rep.values["telemetry.overhead_pct"] = one(over)
	rep.setLayers()
	return rep, nil
}

// simEndToEnd fills the end-to-end metrics from the measured runs.
func simEndToEnd(runs []simRun, rep *report) {
	costMetrics(rep, simSamples(runs))
	rep.values["run_ms"] = runMS(simSamples(runs))
	var walls, builds []float64
	for _, r := range runs {
		walls = append(walls, ms(r.wall))
		builds = append(builds, secs(r.build))
	}
	rep.values["setup_s"] = medianOf(builds)
	rep.notes = append(rep.notes, fmt.Sprintf("%d runs over %d seeds", len(runs), len(fastest(simSamples(runs)))),
		tailNote("run ms, every repetition", walls))
}

// simHeapMB is the heap a run of sc holds at its send horizon, with every
// packet sent and the world fully populated.
func simHeapMB(sc experiment.Scenario) (float64, error) {
	w, err := experiment.Build(sc)
	if err != nil {
		return 0, err
	}
	w.StartWorkload(w.ChoosePairs())
	if err := w.Eng.RunUntil(sc.Duration); err != nil {
		return 0, err
	}
	mb := liveHeapMB()
	runtime.KeepAlive(w)
	return mb, nil
}

// simLayers fills the per-layer metrics of a traced simulation phase.
func simLayers(runs []simRun, ph phase, rep *report) {
	ph.fill(rep)
	var sent float64
	var events uint64
	var med medium.Counters
	var rc gpsr.Counters
	var cc core.Counters
	var lc locservice.Counters
	var ops node.CryptoOps
	for _, r := range runs {
		sent += float64(r.res.Sent)
		events += r.events
		med.UnicastsSent += r.med.UnicastsSent
		med.BroadcastsSent += r.med.BroadcastsSent
		med.Delivered += r.med.Delivered
		med.Retransmissions += r.med.Retransmissions
		rc.Sent += r.router.Sent
		rc.TotalHops += r.router.TotalHops
		rc.PerimeterEntries += r.router.PerimeterEntries
		cc.ZoneBroadcasts += r.core.ZoneBroadcasts
		cc.Resends += r.core.Resends
		lc.Lookups += r.loc.Lookups
		ops.Sym += r.ops.Sym
	}
	per := func(n uint64) value { return one(ratio(float64(n), sent)) }
	rep.values["sim.events_per_packet"] = per(events)
	rep.values["medium.unicasts_per_packet"] = per(med.UnicastsSent)
	rep.values["medium.broadcasts_per_packet"] = per(med.BroadcastsSent)
	rep.values["medium.receptions_per_packet"] = per(med.Delivered)
	rep.values["medium.retransmissions_per_packet"] = per(med.Retransmissions)
	rep.values["gpsr.hops_per_packet"] = per(rc.TotalHops)
	rep.values["gpsr.legs_per_packet"] = per(rc.Sent)
	rep.values["gpsr.perimeter_entries_per_packet"] = per(rc.PerimeterEntries)
	rep.values["core.zone_broadcasts_per_packet"] = per(cc.ZoneBroadcasts)
	rep.values["core.resends_per_packet"] = per(cc.Resends)
	rep.values["locservice.lookups_per_packet"] = per(lc.Lookups)
	rep.values["crypt.sym_ops_per_packet"] = per(ops.Sym)
	rep.values["runtime.allocs_per_packet"] = one(ratio(float64(ph.allocs), sent))
	experimentLayers(rep, ph.spans)
}

// experimentLayers reports the median self time of each call into the
// experiment layer among spans.
func experimentLayers(rep *report, spans []span) {
	self := selfByName(spans)
	rep.values["experiment.build_ms"] = medianOf(durations(self["experiment.Build"], ms))
	rep.values["experiment.workload_ms"] = medianOf(durations(self["experiment.StartWorkload"], ms))
	rep.values["experiment.drain_ms"] = medianOf(durations(self["experiment.Drain"], ms))
	rep.values["experiment.collect_ms"] = medianOf(durations(self["experiment.Collect"], ms))
}

// experimentProbe times the experiment layer's calls on three simulated
// runs of sc, for workloads that make those calls out of sight (inside the
// campaign engine) or not at all (the live fleet).
func experimentProbe(sc experiment.Scenario, rep *report) error {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		if _, err := simOnce(sc, tr); err != nil {
			return err
		}
	}
	experimentLayers(rep, tr.spans)
	return nil
}

// telemetryOverhead re-measures what a full telemetry tap (every layer,
// encoded and discarded) costs a simulated run of a workload's scenario:
// runs with and without the tap alternate over seeds base..base+seeds-1
// for at least budget, and the result is the tapped wall time over the
// plain wall time, minus one, in percent.
func telemetryOverhead(scenario func(int64) experiment.Scenario, seeds int, base int64, budget time.Duration) (float64, error) {
	var plain, tapped time.Duration
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		sc := scenario(base + int64(i%seeds))
		for k := 0; k < 2; k++ {
			var tap *telemetry.Tap
			if (i+k)%2 == 1 {
				tap = telemetry.New(io.Discard, telemetry.LayerAll)
			}
			t0 := time.Now()
			if _, _, err := experiment.RunWorld(sc, tap); err != nil {
				return 0, err
			}
			if tap == nil {
				plain += time.Since(t0)
				continue
			}
			if err := tap.Flush(); err != nil {
				return 0, err
			}
			tapped += time.Since(t0)
		}
	}
	return 100 * (float64(tapped)/float64(plain) - 1), nil
}
