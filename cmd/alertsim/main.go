// Command alertsim runs one MANET scenario in the discrete-event simulator,
// on an in-process fleet of live UDP daemons, or on both, and prints the
// paper's evaluation metrics.
//
//	alertsim                                     # ALERT, paper defaults
//	alertsim -preset sparse -speed 4             # a preset, one field changed
//	alertsim -protocol gpsr -seeds 30            # mean ± 95% CI over 30 runs
//	alertsim -mode both -nodes 50 -out /tmp/run  # sim, live and the band check
//
// Every scenario flag sets one experiment.Scenario field and defaults to
// experiment.DefaultScenario()'s value; -preset swaps in the preset's
// scenario, which the flags given still override. Live runs one seed of
// what live.CanRun accepts: alert or gpsr over CBR, without ALERT's
// notify-and-go, intersection guard, confirmations or NAKs. In -mode both
// the exit status is 1 when a live metric falls outside live.Compare's
// band around the sim's; both sides' hops are over delivered packets.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"sync"
	"time"

	"alertmanet/internal/campaign"
	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/live"
	"alertmanet/internal/medium"
	"alertmanet/internal/telemetry"
	"alertmanet/internal/trace"
)

// options is one parsed command line: the scenario and how to run it.
type options struct {
	sc                             experiment.Scenario
	mode, outDir, tlmFile, liveTlm string
	svgOut, pprofFile, traceOut    string
	seeds                          int
	timescale                      float64
	tlmLayers                      telemetry.Layer
	showMap, progress, listPresets bool
}

// usageError is a command line that cannot run; main exits 2 on it.
type usageError struct{ error }

func parseFlags(args []string) (*options, error) {
	o := &options{sc: experiment.DefaultScenario(), tlmLayers: telemetry.LayerAll}
	sc := &o.sc
	var preset string
	fs := flag.NewFlagSet("alertsim", flag.ContinueOnError)
	fs.StringVar((*string)(&sc.Protocol), "protocol", string(sc.Protocol), "protocol: alert, gpsr, alarm, ao2p, zap (live runs alert and gpsr)")
	fs.Int64Var(&sc.Seed, "seed", sc.Seed, "random seed")
	fs.IntVar(&sc.N, "nodes", sc.N, "number of nodes")
	fs.Func("field", fmt.Sprintf("field dimensions WxH in metres (default %gx%g)", sc.Field.Max.X, sc.Field.Max.Y), func(s string) error {
		var w, h float64
		if _, err := fmt.Sscanf(strings.ToLower(s), "%fx%f", &w, &h); err != nil || w <= 0 || h <= 0 {
			return fmt.Errorf("want WxH, got %q", s)
		}
		sc.Field = geo.Rect{Max: geo.Point{X: w, Y: h}}
		return nil
	})
	fs.Float64Var(&sc.Speed, "speed", sc.Speed, "node speed in m/s")
	fs.StringVar((*string)(&sc.Mobility), "mobility", string(sc.Mobility), "mobility: rwp, group, static, ns2")
	fs.Func("ns2-trace", "replay an NS-2 setdest movement script (sets -mobility ns2)", func(path string) error {
		sc.Mobility, sc.NS2TracePath = experiment.NS2Trace, path
		return nil
	})
	fs.IntVar(&sc.Groups, "groups", sc.Groups, "groups for group mobility")
	fs.Float64Var(&sc.GroupRange, "grouprange", sc.GroupRange, "group movement range in metres")
	fs.Float64Var(&sc.Duration, "duration", sc.Duration, "simulated seconds of traffic")
	fs.Float64Var(&sc.DrainTime, "drain", sc.DrainTime, "extra seconds for in-flight packets to finish")
	fs.IntVar(&sc.Pairs, "pairs", sc.Pairs, "S-D communication pairs")
	fs.Float64Var(&sc.Interval, "interval", sc.Interval, "seconds between packets per pair")
	fs.IntVar(&sc.Packets, "packets", sc.Packets, "cap packets per pair (0 = until -duration)")
	fs.IntVar(&sc.PacketSize, "packet-size", sc.PacketSize, "data packet size in bytes")
	fs.StringVar((*string)(&sc.Workload), "workload", string(sc.Workload), "traffic model: cbr, poisson, burst (empty = cbr)")
	fs.Float64Var(&sc.LossRate, "loss", sc.LossRate, "random frame loss probability")
	fs.BoolFunc("no-updates", "disable destination location updates", func(s string) error {
		off, err := strconv.ParseBool(s)
		sc.LocUpdates = !off
		return err
	})
	fs.IntVar(&sc.Alert.K, "k", sc.Alert.K, "ALERT destination k-anonymity")
	fs.IntVar(&sc.Alert.H, "H", sc.Alert.H, "override ALERT partition count (0 = derive from k)")
	fs.BoolVar(&sc.Alert.NotifyAndGo, "notify-and-go", sc.Alert.NotifyAndGo, "enable ALERT source cover traffic")
	fs.BoolVar(&sc.Alert.IntersectionGuard, "intersection-guard", sc.Alert.IntersectionGuard, "enable ALERT two-step multicast")
	fs.BoolVar(&sc.Alert.Confirm, "confirm", sc.Alert.Confirm, "enable confirmations + retransmission")
	fs.BoolVar(&sc.Alert.NAKs, "naks", sc.Alert.NAKs, "enable NAK-based loss recovery")
	fs.BoolVar(&sc.Alert.ChargeSessionSetup, "charge-setup", sc.Alert.ChargeSessionSetup, "charge asymmetric session setup on first packets")

	fs.StringVar(&preset, "preset", "", "start from a named preset (see -list-presets); other flags still override it")
	fs.BoolVar(&o.listPresets, "list-presets", false, "list scenario presets and exit")
	fs.StringVar(&o.mode, "mode", "sim", "what to run: sim, live (in-process UDP daemons) or both (live band-checked against sim)")
	fs.IntVar(&o.seeds, "seeds", 1, "number of independent runs to aggregate (-mode sim)")
	fs.BoolVar(&o.progress, "progress", false, "with -seeds > 1, print a line as each seed finishes")
	fs.Float64Var(&o.timescale, "timescale", 0.05, "wall-clock seconds per emulated second (live)")
	fs.StringVar(&o.outDir, "out", "", "directory for per-packet JSONL logs and JSON summaries")
	fs.StringVar(&o.tlmFile, "telemetry", "", "write the sim run's JSONL event stream to this file; a run manifest goes to FILE.manifest.json")
	fs.StringVar(&o.liveTlm, "live-telemetry", "", "directory for the live fleet's per-node JSONL event streams")
	fs.Func("tlm-layers", "telemetry layers to record on both sides: comma-separated sim,medium,route,packet,crypto, or all (default all)", func(s string) (err error) {
		o.tlmLayers, err = telemetry.ParseLayers(s)
		return err
	})
	fs.BoolVar(&o.showMap, "map", false, "print an ASCII map of one routed packet")
	fs.StringVar(&o.svgOut, "svg", "", "write an SVG of one routed packet to this file")
	fs.StringVar(&o.pprofFile, "pprof", "", "write a CPU profile to this file")
	fs.StringVar(&o.traceOut, "trace", "", "write a Go execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return nil, usageError{err}
	}
	if preset != "" {
		p, err := experiment.FindPreset(preset)
		if err != nil {
			return nil, usageError{err}
		}
		// Parsing again re-applies exactly the flags given over the preset.
		o.sc = p.Scenario
		_ = fs.Parse(args) // the arguments just parsed cleanly
	}
	return o, o.check()
}

// check rejects, before anything is built, a command line that cannot run.
func (o *options) check() error {
	bad := func(format string, a ...any) error {
		return usageError{fmt.Errorf("alertsim: "+format, a...)}
	}
	if err := o.sc.Validate(); err != nil {
		return usageError{err}
	}
	switch {
	case o.mode != "sim" && o.mode != "live" && o.mode != "both":
		return bad("-mode wants sim, live or both, got %q", o.mode)
	case o.seeds > 1 && (o.tlmFile != "" || o.outDir != ""):
		return bad("-telemetry and -out record one run; use -seeds 1 (with -seed to pick it)")
	case o.mode == "sim":
		return nil
	case o.seeds > 1:
		return bad("-seeds %d runs only in -mode sim; live runs one seed", o.seeds)
	}
	if err := live.CanRun(o.sc); err != nil {
		return bad("%v; -mode sim runs it", err)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.listPresets {
		for _, p := range experiment.Presets() {
			fmt.Fprintf(stdout, "  %-14s %s\n", p.Name, p.Description)
		}
		return nil
	}
	stopCPU, err := profile(o.pprofFile, pprof.StartCPUProfile, pprof.StopCPUProfile)
	if err != nil {
		return err
	}
	defer stopCPU()
	stopTrace, err := profile(o.traceOut, rtrace.Start, rtrace.Stop)
	if err != nil {
		return err
	}
	defer stopTrace()

	sc := o.sc
	fmt.Fprintf(stdout, "scenario: %s, %d nodes, %.0f m/s, %s mobility, %.0f s, %d pairs\n",
		sc.Protocol, sc.N, sc.Speed, sc.Mobility, sc.Duration, sc.Pairs)
	if o.showMap || o.svgOut != "" {
		if err := printRouteMap(stdout, sc, o.showMap, o.svgOut); err != nil {
			return err
		}
	}
	if o.seeds > 1 {
		return runSeeds(stdout, sc, o.seeds, o.progress)
	}
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return err
		}
	}

	var simRes experiment.Result
	var w *experiment.World
	if o.mode != "live" {
		if simRes, w, err = runSim(stdout, o); err != nil {
			return err
		}
		if o.mode == "sim" {
			printResult(stdout, simRes)
			return nil
		}
		// Hops over delivered packets, the live line's definition.
		fmt.Fprintf(stdout, "sim:  sent %d delivered %d rate %.3f meanlat %.4fs hops %.2f\n",
			simRes.Sent, simRes.Delivered, simRes.DeliveryRate, simRes.MeanLatency,
			w.Proto.Collector().HopsPerDelivered())
	}
	liveSum, err := runLive(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "live: sent %d delivered %d rate %.3f meanlat %.4fs hops %.2f\n",
		liveSum.Sent, liveSum.Delivered, liveSum.DeliveryRate, liveSum.MeanLatency, liveSum.HopsPerPkt)
	if o.mode == "live" {
		return nil
	}
	cmp := live.Compare(simRes, w, liveSum)
	fmt.Fprint(stdout, cmp.String())
	if o.outDir != "" {
		err = writeJSON(filepath.Join(o.outDir, "compare.json"), "  ", cmp)
	}
	if err == nil && !cmp.OK {
		err = errors.New("alertsim: live run outside tolerance bands")
	}
	return err
}

// profile starts a CPU profile or execution trace into path (nothing when
// path is empty) and returns the function that stops it and closes the file.
func profile(path string, start func(io.Writer) error, stop func()) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := start(f); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return func() { stop(); f.Close() }, nil
}

func printResult(stdout io.Writer, r experiment.Result) {
	fmt.Fprintf(stdout, "packets sent:          %d\n", r.Sent)
	fmt.Fprintf(stdout, "packets delivered:     %d\n", r.Delivered)
	fmt.Fprintf(stdout, "delivery rate:         %.4f\n", r.DeliveryRate)
	fmt.Fprintf(stdout, "latency per packet:    %.2f ms\n", r.MeanLatency*1e3)
	fmt.Fprintf(stdout, "hops per packet:       %.2f\n", r.HopsPerPacket)
	fmt.Fprintf(stdout, "random forwarders:     %.2f\n", r.MeanRFs)
	fmt.Fprintf(stdout, "participating nodes:   %d\n", r.Participants)
	fmt.Fprintf(stdout, "route similarity:      %.3f (Jaccard; low = anonymous)\n", r.RouteJaccard)
	fmt.Fprintf(stdout, "energy per delivered:  %.2f mJ\n", r.EnergyPerDelivered*1e3)
}

// runSeeds runs the scenario at seeds 1..seeds in the simulator, as one
// batch on a campaign engine, and prints each metric's mean and 95%
// confidence interval. With progress, each seed that finishes prints its
// cell label, (done/total) and wall seconds; a failed seed's error is
// returned instead.
func runSeeds(stdout io.Writer, sc experiment.Scenario, seeds int, progress bool) error {
	cells := make([]experiment.Scenario, seeds)
	for i := range cells {
		cells[i] = sc
		cells[i].Seed = int64(i + 1)
	}
	eng := &campaign.Engine{}
	if progress {
		eng.Expect(seeds)
		var mu sync.Mutex // OnCell fires on the engine's workers
		eng.OnCell = func(ev campaign.CellEvent) {
			if ev.Err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(stdout, "%s done (%d/%d) in %.2fs\n", ev.Label, ev.Done, ev.Total, ev.Seconds)
		}
	}
	results, err := eng.RunBatch(cells)
	if err != nil {
		return err
	}
	agg := experiment.AggregateResults(results)
	fmt.Fprintf(stdout, "aggregated over %d runs (mean ± 95%% CI):\n", seeds)
	fmt.Fprintf(stdout, "delivery rate:         %.4f ± %.4f\n", agg.DeliveryRate.Mean, agg.DeliveryRate.CI95)
	fmt.Fprintf(stdout, "latency per packet:    %.2f ± %.2f ms\n", agg.MeanLatency.Mean*1e3, agg.MeanLatency.CI95*1e3)
	fmt.Fprintf(stdout, "hops per packet:       %.2f ± %.2f\n", agg.HopsPerPacket.Mean, agg.HopsPerPacket.CI95)
	fmt.Fprintf(stdout, "random forwarders:     %.2f ± %.2f\n", agg.MeanRFs.Mean, agg.MeanRFs.CI95)
	fmt.Fprintf(stdout, "participating nodes:   %.1f ± %.1f\n", agg.Participants.Mean, agg.Participants.CI95)
	fmt.Fprintf(stdout, "route similarity:      %.3f ± %.3f\n", agg.RouteJaccard.Mean, agg.RouteJaccard.CI95)
	return nil
}

// runSim runs the scenario once in the simulator. With -telemetry a tap
// writes the JSONL event stream, which holds only simulated-time data (two
// runs of one scenario and seed write identical bytes), and the run
// manifest beside it. With -out every packet record and the result go out.
func runSim(stdout io.Writer, o *options) (experiment.Result, *experiment.World, error) {
	sc := o.sc
	var tap *telemetry.Tap
	var f *os.File
	if o.tlmFile != "" {
		var err error
		if f, err = os.Create(o.tlmFile); err != nil {
			return experiment.Result{}, nil, err
		}
		defer f.Close() // for the error paths; success checks Close below
		tap = telemetry.New(f, o.tlmLayers)
	}
	start := time.Now()
	res, w, err := experiment.RunWorld(sc, tap)
	if err != nil {
		return experiment.Result{}, nil, err
	}
	if tap != nil {
		simEnd := sc.Duration + sc.DrainTime
		m := telemetry.Manifest{ScenarioHash: sc.Hash(), Seed: sc.Seed, Protocol: string(sc.Protocol),
			GoVersion: runtime.Version(), WallSeconds: time.Since(start).Seconds(), SimSeconds: simEnd,
			ProcessedEvents: w.Eng.Processed()}
		tap.WriteSnapshot(simEnd)
		m.EmittedEvents = tap.Events()
		var b bytes.Buffer
		if err := errors.Join(tap.Flush(), f.Close(), m.Encode(&b),
			os.WriteFile(o.tlmFile+".manifest.json", b.Bytes(), 0o644)); err != nil {
			return experiment.Result{}, nil, err
		}
		fmt.Fprintf(stdout, "telemetry: %d events -> %s (manifest %s.manifest.json)\n",
			tap.Events(), o.tlmFile, o.tlmFile)
	}
	if o.outDir != "" {
		err = errors.Join(writeJSON(filepath.Join(o.outDir, "sim_packets.jsonl"), "", w.Proto.Collector().Records()...),
			writeJSON(filepath.Join(o.outDir, "sim_summary.json"), "  ", res))
	}
	return res, w, err
}

// runLive runs the scenario on an in-process fleet of live UDP daemons that
// replays the sim world's trajectories, pairs and flows. With
// -live-telemetry each node writes a JSONL stream in the sim's schema, and
// with -out every send, every delivery and the summary go out.
func runLive(o *options) (sum live.Summary, err error) {
	var tapFor func(id int) *telemetry.Tap
	var files []*os.File
	defer func() {
		for _, f := range files {
			err = errors.Join(err, f.Close())
		}
	}()
	var openErr error
	if o.liveTlm != "" {
		if err := os.MkdirAll(o.liveTlm, 0o755); err != nil {
			return live.Summary{}, err
		}
		tapFor = func(id int) *telemetry.Tap {
			f, err := os.Create(filepath.Join(o.liveTlm, fmt.Sprintf("node_%03d.jsonl", id)))
			if err != nil {
				openErr = err
				return nil
			}
			files = append(files, f)
			return telemetry.New(f, o.tlmLayers)
		}
	}
	fl, err := live.SpawnFleetWithTaps(o.sc, o.timescale, tapFor)
	if err != nil {
		return live.Summary{}, err
	}
	defer func() { err = errors.Join(err, fl.Close()) }() // flushes the taps before the files close
	if openErr != nil {
		return live.Summary{}, openErr
	}
	sum, err = live.NewCoordinator(fl.World, fl.Handles(), o.timescale).Run()
	if err == nil && o.outDir != "" {
		err = errors.Join(writeJSON(filepath.Join(o.outDir, "live_sends.jsonl"), "", sum.Sends...),
			writeJSON(filepath.Join(o.outDir, "live_deliveries.jsonl"), "", sum.Deliveries...),
			writeJSON(filepath.Join(o.outDir, "live_summary.json"), "  ", sum))
	}
	return sum, err
}

// writeJSON writes docs to path as JSON documents indented by indent; an
// empty indent writes one compact document per line (JSONL).
func writeJSON[T any](path, indent string, docs ...T) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", indent)
	for _, d := range docs {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// printRouteMap runs one packet on a fresh copy of the scenario and renders
// its route as an ASCII map, an SVG file at svgPath, or both.
func printRouteMap(stdout io.Writer, sc experiment.Scenario, ascii bool, svgPath string) error {
	w, err := experiment.Build(sc)
	if err != nil {
		return err
	}
	w.StartWorkload(w.ChoosePairs()[:1])
	w.Eng.RunUntil(10)
	for _, r := range w.Proto.Collector().Records() {
		if !r.Delivered {
			continue
		}
		positions := make([]geo.Point, w.Net.N())
		for id := range positions {
			positions[id] = w.Med.PositionNow(medium.NodeID(id))
		}
		zd := experiment.ZoneOf(w, r.Dst)
		if ascii {
			m, err := trace.RouteMap(w.Net.Field(), positions, r.Path, r.Src, r.Dst, zd, 76, 30)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, "route of one delivered packet ('S' source, 'D' destination,\n",
				"numbered relays in hop order, '#' destination zone):\n", m)
		}
		if svgPath == "" {
			return nil
		}
		svg := trace.RouteSVG(w.Net.Field(), positions, r.Path, r.Src, r.Dst, zd,
			trace.SVGOptions{Title: fmt.Sprintf("%s route, %d hops", sc.Protocol, r.Hops)})
		fmt.Fprintln(stdout, "wrote", svgPath)
		return os.WriteFile(svgPath, []byte(svg), 0o644)
	}
	fmt.Fprintln(stdout, "(no packet delivered in the first 10 s; no map)")
	return nil
}
