package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"alertmanet/internal/analysis"
	"alertmanet/internal/campaign"
	"alertmanet/internal/experiment"
)

// figuresGoldenPath holds the series digest of every figure at its pinned
// small parameters.
const figuresGoldenPath = "internal/experiment/testdata/figures_golden.json"

// campaignSpec is the figure-grid campaign workload. Its grid is fixed by
// the figure registry and the golden corpus, so --seed does not change it.
type campaignSpec struct {
	// warmPasses is how many timed warm passes follow each cold pass, each
	// reopening that pass's completed store and resolving every cell from
	// it again.
	warmPasses int
}

// campaignGolden runs the 14 golden figures plus the protocol comparison
// through campaign.Engine with a fresh store and cache and one worker per
// CPU (cold passes: many short concurrent runs, store and cache writes),
// then reopens the store and resolves everything again (warm passes:
// reads only). A change that speeds one up at the other's cost shows here.
var campaignGolden = campaignSpec{warmPasses: 8}

// spanRunner passes the figure code's batches to the engine, timing each.
type spanRunner struct {
	eng    *campaign.Engine
	tr     *tracer
	parent int
	busy   time.Duration
}

func (s *spanRunner) RunBatch(cells []experiment.Scenario) ([]experiment.Result, error) {
	id := s.tr.begin("campaign.RunBatch", s.parent)
	t0 := time.Now()
	res, err := s.eng.RunBatch(cells)
	s.busy += time.Since(t0)
	s.tr.end(id)
	return res, err
}

func (s *spanRunner) RemainingBatch(cells []experiment.RemainingSpec) ([]experiment.RemainingResult, error) {
	id := s.tr.begin("campaign.RemainingBatch", s.parent)
	t0 := time.Now()
	res, err := s.eng.RemainingBatch(cells)
	s.busy += time.Since(t0)
	s.tr.end(id)
	return res, err
}

// seriesDigest is the figure golden corpus's fingerprint of a figure.
func seriesDigest(series []analysis.Series) string {
	h := sha256.New()
	for _, s := range series {
		fmt.Fprintf(h, "%s|%v|%v|%v\n", s.Label, s.X, s.Y, s.Err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFigures renders every figure of the golden corpus at its pinned
// parameters through r and returns each one's digest.
func goldenFigures(r experiment.Runner) (map[string]string, error) {
	got := map[string]string{}
	var first error
	record := func(name string) func([]analysis.Series, error) {
		return func(s []analysis.Series, err error) {
			if err != nil && first == nil {
				first = fmt.Errorf("%s: %w", name, err)
			}
			got[name] = seriesDigest(s)
		}
	}
	single := func(s analysis.Series, err error) ([]analysis.Series, error) {
		return []analysis.Series{s}, err
	}
	times := []float64{0, 5, 10}
	record("fig10a")(experiment.Fig10a(r, 5, 2))
	record("fig10b")(experiment.Fig10b(r, 5, 2))
	record("fig11")(single(experiment.Fig11(r, 3, 2)))
	record("fig12")(experiment.Fig12(r, times, 2))
	record("fig13a")(experiment.Fig13a(r, times, 2))
	record("fig13b")(single(experiment.Fig13b(r, 4, []float64{2, 4}, 2)))
	record("fig14a")(experiment.Fig14a(r, 2))
	record("fig14b")(experiment.Fig14b(r, 2))
	record("fig15a")(experiment.Fig15a(r, 2))
	record("fig15b")(experiment.Fig15b(r, 2))
	record("fig16a")(experiment.Fig16a(r, 2))
	record("fig16b")(experiment.Fig16b(r, 2))
	record("fig17")(experiment.Fig17(r, 2))
	record("energy")(experiment.EnergySummary(r, 2))
	comps, err := experiment.CompareProtocols(r,
		[]experiment.ProtocolName{experiment.ALERT, experiment.GPSR}, 3, 20)
	if err != nil && first == nil {
		first = fmt.Errorf("compare: %w", err)
	}
	h := sha256.New()
	for _, c := range comps {
		fmt.Fprintf(h, "%+v\n", c)
	}
	got["compare"] = hex.EncodeToString(h.Sum(nil))
	return got, first
}

// campaignPass is one pass over the grid.
type campaignPass struct {
	openStore, open time.Duration // OpenStore alone; OpenStore+OpenCache
	batches         time.Duration // inside the engine
	wall, cpu       time.Duration
	stats           campaign.Stats
	sent, delivered int // packets of the run cells the store holds
	digests         map[string]string
	cells           map[string]time.Duration // execution wall time by cell key
}

// grid resolves a campaign's cells through r and returns the digest of
// each figure it renders.
type grid func(r experiment.Runner) (map[string]string, error)

// pass opens the store and cache under dir (empty for a cold pass, left by
// a cold pass for a warm one), resolves g through a fresh engine, and
// closes the store. A non-nil heap receives the heap the pass holds once
// every cell is resolved, before the store closes.
func pass(dir, name string, g grid, tr *tracer, heap *float64) (campaignPass, error) {
	var p campaignPass
	root := tr.beginRun(name)
	defer tr.end(root)
	cpu0 := cpuTime()
	t0 := time.Now()
	id := tr.begin("campaign.OpenStore", root)
	store, err := campaign.OpenStore(filepath.Join(dir, "store"))
	tr.end(id)
	if err != nil {
		return p, err
	}
	p.openStore = time.Since(t0)
	id = tr.begin("campaign.OpenCache", root)
	cache, err := campaign.OpenCache(filepath.Join(dir, "cache"))
	tr.end(id)
	if err != nil {
		store.Close()
		return p, err
	}
	p.open = time.Since(t0)
	// The engine reports each execution from its worker goroutines.
	var mu sync.Mutex
	p.cells = map[string]time.Duration{}
	onCell := func(ev campaign.CellEvent) {
		if ev.Source == "run" {
			mu.Lock()
			p.cells[ev.Key] = time.Duration(ev.Seconds * float64(time.Second))
			mu.Unlock()
		}
	}
	r := &spanRunner{
		eng: &campaign.Engine{Name: "bench", Jobs: runtime.NumCPU(), Store: store, Cache: cache,
			OnCell: onCell},
		tr:     tr,
		parent: root,
	}
	p.digests, err = g(r)
	if heap != nil {
		*heap = liveHeapMB()
		runtime.KeepAlive(r)
	}
	id = tr.begin("campaign.Store.Close", root)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	tr.end(id)
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.batches = r.busy
	p.stats = r.eng.Snapshot()
	for _, rec := range store.Records() {
		if rec.Result != nil {
			p.sent += rec.Result.Sent
			p.delivered += rec.Result.Delivered
		}
	}
	return p, err
}

// campaignPasses runs cycles until dur has elapsed (at least one): a cold
// pass on a fresh store and cache, a collection of its garbage, one
// untimed warm pass (which in the first cycle also measures the resumed
// campaign's heap), and the timed warm passes. Interleaving the warm passes with the cold ones
// spreads both over the run. Every pass's figures are checked against the
// golden corpus and its engine counters against what the pass must do.
func campaignPasses(spec campaignSpec, e env, want map[string]string, tr *tracer, rep *report) (colds, warms []campaignPass, heap float64, err error) {
	checkPass := func(kind string, p campaignPass) {
		rep.attempted += p.stats.Cells
		rep.failed += p.stats.Failed
		for name, w := range want {
			if p.digests[name] != w {
				rep.gate("%s pass: %s digest %.12s, golden %.12s", kind, name, p.digests[name], w)
			}
		}
		if len(p.digests) != len(want) {
			rep.gate("%s pass rendered %d figures, golden corpus has %d", kind, len(p.digests), len(want))
		}
	}
	err = repeat(1, e.dur, func(int) error {
		dir, err := os.MkdirTemp(e.workDir, "campaign-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cold, err := pass(dir, "campaign.cold_pass", goldenFigures, tr, nil)
		if err != nil {
			return err
		}
		checkPass("cold", cold)
		if cold.stats.Executed == 0 || cold.stats.StoreHits+cold.stats.CacheHits != 0 {
			rep.gate("cold pass resolved %+v; want executions only", cold.stats)
		}
		colds = append(colds, cold)
		runtime.GC()
		for i := 0; i <= spec.warmPasses; i++ {
			// Read the heap in the first cycle, before the benchmark's own
			// record of the passes grows.
			var h *float64
			if i == 0 && len(colds) == 1 {
				h = &heap
			}
			warm, err := pass(dir, "campaign.warm_pass", goldenFigures, tr, h)
			if err != nil {
				return err
			}
			checkPass("warm", warm)
			if warm.stats.Executed != 0 || warm.stats.StoreHits != cold.stats.Executed {
				rep.gate("warm pass resolved %+v; want all %d executed cells from the store", warm.stats, cold.stats.Executed)
			}
			if i > 0 {
				warms = append(warms, warm)
			}
		}
		return nil
	})
	return colds, warms, heap, err
}

// coldSamples are the cold passes' timings: repetitions of one input.
func coldSamples(colds []campaignPass) []sample {
	out := make([]sample, len(colds))
	for i, p := range colds {
		out[i] = sample{wall: p.wall, cpu: p.cpu, sent: p.sent, delivered: p.delivered}
	}
	return out
}

// cellSamples are the executed cells' wall times as the engine reports
// them, one input per cell key.
func cellSamples(colds []campaignPass) []sample {
	index := map[string]int64{}
	var out []sample
	for _, p := range colds {
		for key, d := range p.cells {
			i, ok := index[key]
			if !ok {
				i = int64(len(index))
				index[key] = i
			}
			out = append(out, sample{input: i, wall: d})
		}
	}
	return out
}

// campaignLayers reports the campaign layer's per-layer metrics from cold
// and warm passes over one grid.
func campaignLayers(rep *report, colds, warms []campaignPass) {
	var batches, renders, opens, resumes []float64
	for _, p := range colds {
		batches = append(batches, secs(p.batches))
		renders = append(renders, secs(p.wall-p.open-p.batches))
	}
	for _, p := range warms {
		opens = append(opens, ms(p.openStore))
		resumes = append(resumes, ms(p.wall))
	}
	resume := medianOf(resumes)
	resume.v = sorted(resumes)[0] // the fastest warm pass
	rep.values["campaign.resume_ms"] = resume
	best := fastest(coldSamples(colds))[0].wall
	rep.values["campaign.cells_per_min"] = one(float64(colds[0].stats.Executed) / best.Minutes())
	rep.values["campaign.executed_cells"] = one(float64(colds[0].stats.Executed))
	rep.values["campaign.memo_hits"] = one(float64(colds[0].stats.MemoHits))
	rep.values["campaign.store_hits"] = one(float64(warms[0].stats.StoreHits))
	rep.values["campaign.runbatch_s"] = medianOf(batches)
	rep.values["campaign.render_s"] = medianOf(renders)
	rep.values["campaign.open_store_ms"] = medianOf(opens)
}

// campaignProbe runs four cells of a workload's own scenario (seeds
// base..base+3) through the campaign engine, one cold pass and three warm
// passes, so a workload that does not use the engine still reports the
// campaign layer's cost on its cells.
func campaignProbe(scenario func(int64) experiment.Scenario, base int64, e env, rep *report) error {
	cells := make([]experiment.Scenario, 4)
	for i := range cells {
		cells[i] = scenario(base + int64(i))
	}
	g := func(r experiment.Runner) (map[string]string, error) {
		_, err := r.RunBatch(cells)
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workDir, "campaign-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var passes []campaignPass
	for i := 0; i < 4; i++ {
		p, err := pass(dir, "campaign.probe", g, nil, nil)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	campaignLayers(rep, passes[:1], passes[1:])
	return nil
}

// runCampaign drives the campaign workload.
func runCampaign(spec campaignSpec, e env) (*report, error) {
	rep := newReport()
	b, err := os.ReadFile(filepath.Join(e.root, figuresGoldenPath))
	if err != nil {
		return nil, err
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		return nil, fmt.Errorf("parse %s: %w", figuresGoldenPath, err)
	}

	colds, warms, heap, err := campaignPasses(spec, e, want, nil, rep)
	if err != nil {
		return nil, err
	}
	// Throughput and cost are the cold pass's; a run is one executed cell,
	// as in the simulation workloads. Resuming (the warm passes) is mostly
	// small file operations whose latency on a shared host swings 2x from
	// one invocation to the next, so it is a per-layer number only.
	costMetrics(rep, coldSamples(colds))
	rep.values["run_ms"] = runMS(cellSamples(colds))
	var warmWall, warmOpen []float64
	for _, p := range warms {
		warmWall = append(warmWall, ms(p.wall))
		warmOpen = append(warmOpen, secs(p.open))
	}
	rep.values["setup_s"] = medianOf(warmOpen)
	rep.values["heap_mb"] = one(heap)
	st := colds[0].stats
	best := fastest(coldSamples(colds))[0].wall
	rep.notes = append(rep.notes, fmt.Sprintf("%d cold passes (%d cell requests, %d executed, %d packets each; %.0f cells/min), %d warm passes",
		len(colds), st.Cells, st.Executed, colds[0].sent, float64(st.Executed)/best.Minutes(), len(warms)),
		tailNote("warm pass ms", warmWall))
	if !e.trace {
		return rep, nil
	}

	var tc, tw []campaignPass
	var perr error
	ph, err := tracedPhase(e.outDir, rep, func(tr *tracer) {
		tc, tw, _, perr = campaignPasses(spec, e, want, tr, rep)
	})
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	ph.fill(rep)
	campaignLayers(rep, tc, tw)
	sent := 0
	for _, p := range tc {
		sent += p.sent
	}
	rep.values["runtime.allocs_per_packet"] = one(ratio(float64(ph.allocs), float64(sent)))
	rep.values["tracing.overhead_pct"] = one(100 * (cpuPerPacket(coldSamples(tc))/cpuPerPacket(coldSamples(colds)) - 1))

	// The engine makes the experiment layer's calls out of sight; they are
	// timed on the grid's paper-default cell instead.
	sc := simAlert.scenario(1)
	if err := experimentProbe(sc, rep); err != nil {
		return nil, err
	}
	over, err := telemetryOverhead(simAlert.scenario, 1, 1, e.dur/3)
	if err != nil {
		return nil, err
	}
	rep.values["telemetry.overhead_pct"] = one(over)
	pw, err := buildProbeWorld(sc)
	if err != nil {
		return nil, err
	}
	if err := probeLayers(pw, e, rep); err != nil {
		return nil, err
	}
	rep.setLayers()
	return rep, nil
}
