package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4)
// (values computed with Python 3), the definition the spread of a metric
// is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		if q2 != median(c.xs) {
			t.Errorf("quartiles(%v) middle %v differs from median %v", c.xs, q2, median(c.xs))
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{10, 0}, {11, 9}, {50, 80}, {60, 83}, {100, 90}, {1000, 99},
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, p, c.want)
		}
		if p == 0 {
			continue
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		beyond := 0
		for _, x := range xs {
			if x > percentile(xs, float64(p)) {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond it, want >= 10", c.n, p, beyond)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 80); got != 4 {
		t.Errorf("p80 of 1..5 = %v, want 4", got)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"alertmanet/internal/medium.(*bcastSend).RunEvent": "medium",
		"alertmanet/internal/geo.Point.Dist":               "geo",
		"alertmanet/internal/campaign/server.(*Queue).X":   "campaign",
		"alertmanet/internal/stats.(*Sample).Add":          "other",
		"runtime.mallocgc":                                 "",
		"main.simOnce":                                     "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUSharesDecodesOwnProfile profiles a loop spent in geo.Point.Dist,
// decodes the profile, and expects most of its CPU attributed to geo and
// the shares to sum to 100%.
func TestCPUSharesDecodesOwnProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	sink := 0.0
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			sink += geo.Point{X: float64(i)}.Dist(geo.Point{Y: sink})
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, m := range modules {
		sum += shares[m]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("shares sum to %v, want 100: %v", sum, shares)
	}
	if shares["geo"] < 50 {
		t.Errorf("geo share %.1f%%, want most of a Dist loop: %v (sink %v)", shares["geo"], shares, sink)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestSelfTimesSumToRunWall(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100, Run: 1},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1, Run: 1},
		{ID: 3, Name: "b", Start: 50, End: 90, Parent: 1, Run: 1},
		{ID: 4, Name: "b.inner", Start: 60, End: 70, Parent: 3, Run: 1},
		{ID: 5, Name: "run", Start: 100, End: 130, Run: 2},
	}
	self := selfTimes(spans)
	want := []time.Duration{30, 30, 30, 10, 30}
	wall := map[int]time.Duration{1: 100, 2: 30}
	sum := map[int]time.Duration{}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self %v, want %v", i+1, self[i], want[i])
		}
		sum[spans[i].Run] += self[i]
	}
	for run, w := range wall {
		if sum[run] != w {
			t.Errorf("run %d self times sum to %v, wall %v", run, sum[run], w)
		}
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}

	outside := append([]span(nil), spans...)
	outside[3].End = 95 // the inner call outlives its caller
	overlap := append([]span(nil), spans...)
	overlap[2].Start = 30 // two calls from one caller at once
	open := append([]span(nil), spans...)
	open[4].End = 0
	for name, bad := range map[string][]span{"outside": outside, "overlap": overlap, "open": open} {
		if err := checkSpans(bad); err == nil {
			t.Errorf("%s: checkSpans accepted a malformed tree", name)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workloads and
// metrics in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", cfg.EndToEnd, endToEnd}, {"per_layer", cfg.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			j := c.json[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, j, d)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-alert", "--trace", "2"},
		{"--workload", "sim-alert", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q; want non-zero and no result", args, code, out.String())
		}
	}
}

// smokeEnv runs a workload for one short pass.
func smokeEnv(t *testing.T, trace bool, dur time.Duration) env {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return env{seed: 1, dur: dur, trace: trace, outDir: t.TempDir(), workDir: t.TempDir(),
		root: root, probeDur: time.Millisecond}
}

// checkReport checks a smoke run passed every gate and reports every
// metric it owes: the end-to-end set, finite and non-zero, or with
// tracing the per-layer set, with CPU shares adding up to 100% when the
// run was long enough for the profiler to take samples.
func checkReport(t *testing.T, name string, rep *report, err error, trace, profiled bool) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rep.gateErrs) > 0 || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s: gates %v, attempted %d, failed %d", name, rep.gateErrs, rep.attempted, rep.failed)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	var out bytes.Buffer
	if err := printJSON(&out, defs, rep); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var res struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	line := strings.TrimSpace(out.String())
	if err := json.Unmarshal([]byte(line), &res); err != nil || !res.Correct || len(res.Metrics) != len(defs) {
		t.Fatalf("%s: result line %s (%v)", name, line, err)
	}
	if !trace {
		for _, d := range defs {
			if res.Metrics[d.name].Value == 0 {
				t.Errorf("%s: %s is 0", name, d.name)
			}
		}
		return
	}
	sum := 0.0
	for _, m := range modules {
		sum += res.Metrics["cpu_share."+m].Value
	}
	if profiled && math.Abs(sum-100) > 1 {
		t.Errorf("%s: cpu_share sums to %.2f%%", name, sum)
	}
}

// TestSmokeAllWorkloads runs every workload at toy size through all of its
// correctness gates, and the traced path of a simulation and a live
// workload, so the benchmark cannot rot between the runs that measure.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	tinySim := simAlert
	tinySim.seeds = 1
	tinyGPSR := simGPSRLarge
	tinyGPSR.seeds = 1
	tinyLive := liveSpec{seeds: 1, nodes: 5, pairs: 2, field: 300, duration: 3, drain: 1, interval: 0.5, timescale: 0.1}

	rep, err := runSim(tinySim, smokeEnv(t, false, 0))
	checkReport(t, "sim-alert", rep, err, false, false)
	rep, err = runSim(tinyGPSR, smokeEnv(t, false, 0))
	checkReport(t, "sim-gpsr-large", rep, err, false, false)
	rep, err = runCampaign(campaignSpec{warmPasses: 1}, smokeEnv(t, false, 0))
	checkReport(t, "campaign-golden", rep, err, false, false)
	rep, err = runLive(tinyLive, smokeEnv(t, false, 0))
	checkReport(t, "live-loopback", rep, err, false, false)

	rep, err = runSim(tinySim, smokeEnv(t, true, 300*time.Millisecond))
	checkReport(t, "sim-alert traced", rep, err, true, true)
	// A five-node fleet is too idle for the profiler to sample reliably.
	rep, err = runLive(tinyLive, smokeEnv(t, true, 0))
	checkReport(t, "live-loopback traced", rep, err, true, false)
}

// TestGoldenGateCatchesMismatch: against a golden corpus that does not
// match the code, the warm-up run fails its gate, is counted as failed,
// and the result line says the run is not correct.
func TestGoldenGateCatchesMismatch(t *testing.T) {
	e := smokeEnv(t, false, 0)
	e.root = t.TempDir()
	dir := e.root + "/internal/experiment/testdata"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/golden.json", []byte(`{"alert": {"result_digest": "00"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tiny := simAlert
	tiny.seeds = 1
	tiny.scenario = func(seed int64) experiment.Scenario {
		sc := simAlert.scenario(seed)
		sc.Duration, sc.DrainTime = 4, 1
		return sc
	}
	rep, err := runSim(tiny, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.gateErrs) != 1 || rep.failed != 1 {
		t.Fatalf("gates %v, failed %d; want the golden gate alone to fail", rep.gateErrs, rep.failed)
	}
	var out bytes.Buffer
	if err := printJSON(&out, endToEnd, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("result line %s does not say correct:false", out.String())
	}
}
