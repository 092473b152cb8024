// Command bench is the repository's benchmark. It drives the simulator,
// the campaign engine and the live UDP daemons only through their public
// functions, times those calls from outside, reads the layers' public
// counters, and checks every output against the golden corpora.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload sim-alert --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 the workload runs again with spans and a CPU profile
// and the metrics are the per-layer ones, and spans.jsonl and cpu.pprof are
// written under --out. A table with each metric's quartiles and sample
// count, headed by the machine and revision, goes to standard error. The
// exit status is 1 when any correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names a metric, its unit and which direction is better.
// BENCHMARK.json lists the same metrics (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. What a "run" and a "packet" are on each
// workload is stated in README.md.
var endToEnd = []metricDef{
	{"packets_per_s", "1/s", "higher"},
	{"run_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_us_per_packet", "us", "lower"},
	{"delivered_share", "ratio", "higher"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them. A layer's timings are measured on every workload, on the
// workload's own scenario where the workload does not call the layer
// itself; a count of work a layer does not do on a workload reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Self time of the benchmark's own calls into each layer (spans).
		{"experiment.build_ms", "ms", "lower"},
		{"experiment.workload_ms", "ms", "lower"},
		{"experiment.drain_ms", "ms", "lower"},
		{"experiment.collect_ms", "ms", "lower"},
		{"campaign.runbatch_s", "s", "lower"},
		{"campaign.render_s", "s", "lower"},
		{"campaign.open_store_ms", "ms", "lower"},
		{"campaign.resume_ms", "ms", "lower"},
		// Public layer counters per sent packet.
		{"sim.events_per_packet", "count", "lower"},
		{"medium.unicasts_per_packet", "count", "lower"},
		{"medium.broadcasts_per_packet", "count", "lower"},
		{"medium.receptions_per_packet", "count", "lower"},
		{"medium.retransmissions_per_packet", "count", "lower"},
		{"gpsr.hops_per_packet", "count", "lower"},
		{"gpsr.legs_per_packet", "count", "lower"},
		{"gpsr.perimeter_entries_per_packet", "count", "lower"},
		{"core.zone_broadcasts_per_packet", "count", "lower"},
		{"core.resends_per_packet", "count", "lower"},
		{"locservice.lookups_per_packet", "count", "lower"},
		{"crypt.sym_ops_per_packet", "count", "lower"},
		{"campaign.cells_per_min", "1/min", "higher"},
		{"campaign.executed_cells", "count", "lower"},
		{"campaign.memo_hits", "count", "higher"},
		{"campaign.store_hits", "count", "higher"},
		{"live.datagrams_per_packet", "count", "lower"},
		{"live.retries_per_frame", "count", "lower"},
		{"live.rx_drops_full", "count", "lower"},
		{"live.decode_errors", "count", "lower"},
		{"runtime.allocs_per_packet", "count", "lower"},
		{"runtime.gc_cpu_pct", "%", "lower"},
		{"runtime.peak_rss_mb", "MB", "lower"},
	}
	// Probes: ns (or us) per call of one exported function, replayed over
	// inputs taken from the workload's own world.
	for _, p := range probeNames {
		defs = append(defs, metricDef{p.name, p.unit, "lower"})
	}
	// CPU profile share per module.
	for _, m := range modules {
		defs = append(defs, metricDef{"cpu_share." + m, "%", "lower"})
	}
	return append(defs,
		metricDef{"tracing.overhead_pct", "%", "lower"},
		metricDef{"telemetry.overhead_pct", "%", "lower"},
	)
}()

// value is one reported metric: the headline number plus, when it
// summarises a sample, the sample's quartiles and size.
type value struct {
	v      float64
	q1, q3 float64
	n      int
}

// one is a value that summarises nothing (a ratio of totals, a count).
func one(v float64) value { return value{v: v, q1: v, q3: v, n: 1} }

// medianOf summarises a sample by its median and quartiles.
func medianOf(xs []float64) value {
	q1, q2, q3 := quartiles(xs)
	return value{v: q2, q1: q1, q3: q3, n: len(xs)}
}

// report is what one workload run produces.
type report struct {
	attempted, failed int
	gateErrs          []string
	values            map[string]value
	notes             []string // extra lines for the human table
}

func newReport() *report { return &report{values: map[string]value{}} }

// gate records a correctness failure.
func (r *report) gate(format string, args ...any) {
	r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
}

// env is what a workload needs to know about the invocation.
type env struct {
	seed     int64
	dur      time.Duration // how long the measured phase runs
	trace    bool
	outDir   string        // where a traced run writes spans.jsonl and cpu.pprof
	workDir  string        // scratch space for campaign stores and caches
	root     string        // repository root, for the golden corpora
	probeDur time.Duration // minimum length of one probe repetition
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(env) (*report, error){
	"sim-alert":       func(e env) (*report, error) { return runSim(simAlert, e) },
	"sim-gpsr-large":  func(e env) (*report, error) { return runSim(simGPSRLarge, e) },
	"campaign-golden": func(e env) (*report, error) { return runCampaign(campaignGolden, e) },
	"live-loopback":   func(e env) (*report, error) { return runLive(liveLoopback, e) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-alert, sim-gpsr-large, campaign-golden or live-loopback")
	seed := fs.Int64("seed", 1, "first scenario seed of the sim and live workloads")
	seconds := fs.Int("seconds", 15, "length of the measured phase in seconds")
	traceArg := fs.String("trace", "0", "1 runs the traced per-layer measurement")
	out := fs.String("out", ".bench_build/trace", "directory for the traced run's spans.jsonl and cpu.pprof")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q or bad arguments %q\n", *name, fs.Args())
		return 2
	}
	var trace bool
	switch *traceArg {
	case "0", "false":
	case "1", "true":
		trace = true
	default:
		fmt.Fprintf(stderr, "bench: --trace wants 0 or 1, got %q\n", *traceArg)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e := env{
		seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: trace,
		outDir:   filepath.Join(*out, fmt.Sprintf("%s-seed%d", *name, *seed)),
		workDir:  filepath.Join(".bench_build", "tmp"),
		root:     root,
		probeDur: 200 * time.Millisecond,
	}
	dirs := []string{e.workDir}
	if trace {
		dirs = append(dirs, e.outDir)
	}
	for _, dir := range dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	rep, err := drive(e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	printTable(stderr, *name, e, defs, rep)
	if err := printJSON(stdout, defs, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(rep.gateErrs) > 0 {
		return 1
	}
	return 0
}

// repoRoot finds the repository root, the nearest directory at or above
// the working directory that holds the golden corpora.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, goldenRunsPath)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s at or above the working directory; run from the repository root", goldenRunsPath)
		}
		dir = parent
	}
}

// printJSON writes the result line. Every metric in defs must be present
// and finite.
func printJSON(w io.Writer, defs []metricDef, rep *report) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(rep.gateErrs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s missing or not finite (%v)", d.name, v.v)
		}
		out.Metrics[d.name] = metric{Value: v.v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printTable writes the provenance header and one line per metric with its
// quartiles and sample count.
func printTable(w io.Writer, name string, e env, defs []metricDef, rep *report) {
	fmt.Fprintf(w, "# bench %s seed=%d seconds=%g trace=%t\n", name, e.seed, e.dur.Seconds(), e.trace)
	fmt.Fprintf(w, "# %s\n", provenance())
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%t\n", rep.attempted, rep.failed, len(rep.gateErrs) == 0)
	for _, g := range rep.gateErrs {
		fmt.Fprintf(w, "# GATE FAILED: %s\n", g)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "%-36s %-6s %14s %14s %14s %6s\n", "metric", "unit", "value", "q1", "q3", "n")
	for _, d := range defs {
		v := rep.values[d.name]
		fmt.Fprintf(w, "%-36s %-6s %14.6g %14.6g %14.6g %6d\n", d.name, d.unit, v.v, v.q1, v.q3, v.n)
	}
}

// provenance describes the machine, toolchain and source revision.
func provenance() string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s %s/%s rev=%s%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, rev, modified)
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setLayers fills every per-layer metric the workload did not measure with
// 0, so a traced run always reports the full set.
func (r *report) setLayers() {
	for _, d := range perLayer {
		if _, ok := r.values[d.name]; !ok {
			r.values[d.name] = value{}
		}
	}
}
