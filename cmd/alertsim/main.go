// Command alertsim runs one MANET simulation scenario and prints the
// paper's evaluation metrics.
//
// Examples:
//
//	alertsim                                   # ALERT, paper defaults
//	alertsim -protocol gpsr -nodes 100
//	alertsim -protocol alert -speed 8 -no-updates
//	alertsim -seeds 30                         # mean ± 95% CI over 30 runs
//	alertsim -mobility group -groups 5 -grouprange 200
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"time"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/telemetry"
	"alertmanet/internal/trace"
)

func main() {
	var (
		protocol   = flag.String("protocol", "alert", "protocol: alert, gpsr, alarm, ao2p, zap")
		nodes      = flag.Int("nodes", 200, "number of nodes")
		speed      = flag.Float64("speed", 2, "node speed in m/s")
		duration   = flag.Float64("duration", 100, "simulated seconds of traffic")
		drain      = flag.Float64("drain", 10, "extra seconds for in-flight packets to finish")
		pairs      = flag.Int("pairs", 10, "S-D communication pairs")
		interval   = flag.Float64("interval", 2, "seconds between packets per pair")
		seed       = flag.Int64("seed", 1, "random seed")
		seeds      = flag.Int("seeds", 1, "number of independent runs to aggregate")
		mobility   = flag.String("mobility", "rwp", "mobility: rwp, group, static, ns2")
		groups     = flag.Int("groups", 10, "groups for group mobility")
		groupRange = flag.Float64("grouprange", 150, "group movement range in meters")
		loss       = flag.Float64("loss", 0, "random frame loss probability")
		noUpdates  = flag.Bool("no-updates", false, "disable destination location updates")
		k          = flag.Int("k", 6, "ALERT destination k-anonymity")
		hOverride  = flag.Int("H", 0, "override ALERT partition count (0 = derive from k)")
		notify     = flag.Bool("notify-and-go", false, "enable ALERT source cover traffic")
		guard      = flag.Bool("intersection-guard", false, "enable ALERT two-step multicast")
		confirm    = flag.Bool("confirm", false, "enable confirmations + retransmission")
		naks       = flag.Bool("naks", false, "enable NAK-based loss recovery")
		showMap    = flag.Bool("map", false, "print an ASCII map of one routed packet")
		svgOut     = flag.String("svg", "", "write an SVG of one routed packet to this file")
		traceFile  = flag.String("ns2-trace", "", "replay an NS-2 setdest movement script")
		preset     = flag.String("preset", "", "start from a named preset (see -list-presets)")
		listPre    = flag.Bool("list-presets", false, "list scenario presets and exit")
		workload   = flag.String("workload", "cbr", "traffic model: cbr, poisson, burst")
		tlmFile    = flag.String("telemetry", "", "write a structured JSONL event stream to this file (single seed only); a run manifest goes to FILE.manifest.json")
		tlmLayers  = flag.String("tlm-layers", "all", "telemetry layers to record: comma-separated sim,medium,route,packet,crypto, or all")
		pprofFile  = flag.String("pprof", "", "write a CPU profile to this file")
		traceOut   = flag.String("trace", "", "write a Go execution trace to this file")
		progress   = flag.Bool("progress", false, "with -seeds > 1, print a line as each seed finishes")
	)
	flag.Parse()

	if *listPre {
		for _, p := range experiment.Presets() {
			fmt.Printf("  %-14s %s\n", p.Name, p.Description)
		}
		return
	}

	sc := experiment.DefaultScenario()
	if *preset != "" {
		p, err := experiment.FindPreset(*preset)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc = p.Scenario
		// Explicit flags below still override the preset where given.
	}
	sc.Seed = *seed
	sc.Protocol = experiment.ProtocolName(*protocol)
	sc.N = *nodes
	sc.Speed = *speed
	sc.Duration = *duration
	sc.DrainTime = *drain
	sc.Pairs = *pairs
	sc.Interval = *interval
	sc.Mobility = experiment.MobilityName(*mobility)
	if *traceFile != "" {
		sc.Mobility = experiment.NS2Trace
		sc.NS2TracePath = *traceFile
	}
	sc.Groups = *groups
	sc.GroupRange = *groupRange
	sc.LossRate = *loss
	sc.LocUpdates = !*noUpdates
	sc.Alert.K = *k
	sc.Alert.H = *hOverride
	sc.Alert.NotifyAndGo = *notify
	sc.Alert.IntersectionGuard = *guard
	sc.Alert.Confirm = *confirm
	sc.Alert.NAKs = *naks
	sc.Workload = experiment.WorkloadName(*workload)

	if err := sc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *pprofFile != "" {
		f, err := os.Create(*pprofFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			rtrace.Stop()
			f.Close()
		}()
	}

	fmt.Printf("scenario: %s, %d nodes, %.0f m/s, %s mobility, %.0f s, %d pairs\n",
		sc.Protocol, sc.N, sc.Speed, sc.Mobility, sc.Duration, sc.Pairs)

	if *showMap {
		printRouteMap(sc, "")
	}
	if *svgOut != "" {
		printRouteMap(sc, *svgOut)
	}

	if *tlmFile != "" && *seeds > 1 {
		fmt.Fprintln(os.Stderr, "alertsim: -telemetry records one run; use -seeds 1 (with -seed to pick it)")
		os.Exit(2)
	}

	if *seeds <= 1 {
		var r experiment.Result
		var err error
		if *tlmFile != "" {
			r, err = runTelemetry(sc, *tlmFile, *tlmLayers)
		} else {
			r, err = experiment.Run(sc)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("packets sent:          %d\n", r.Sent)
		fmt.Printf("packets delivered:     %d\n", r.Delivered)
		fmt.Printf("delivery rate:         %.4f\n", r.DeliveryRate)
		fmt.Printf("latency per packet:    %.2f ms\n", r.MeanLatency*1e3)
		fmt.Printf("hops per packet:       %.2f\n", r.HopsPerPacket)
		fmt.Printf("random forwarders:     %.2f\n", r.MeanRFs)
		fmt.Printf("participating nodes:   %d\n", r.Participants)
		fmt.Printf("route similarity:      %.3f (Jaccard; low = anonymous)\n", r.RouteJaccard)
		fmt.Printf("energy per delivered:  %.2f mJ\n", r.EnergyPerDelivered*1e3)
		return
	}

	var agg experiment.Aggregate
	var err error
	if *progress {
		done := 0
		var results []experiment.Result
		results, err = experiment.RunParallelProgress(sc, *seeds, func(seed int, r experiment.Result) {
			done++
			fmt.Printf("seed %3d done (%d/%d): delivery %.4f, latency %.2f ms\n",
				seed, done, *seeds, r.DeliveryRate, r.MeanLatency*1e3)
		})
		if err == nil {
			agg = experiment.AggregateResults(results)
		}
	} else {
		agg, err = experiment.RunSeeds(sc, *seeds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("aggregated over %d runs (mean ± 95%% CI):\n", *seeds)
	fmt.Printf("delivery rate:         %.4f ± %.4f\n", agg.DeliveryRate.Mean, agg.DeliveryRate.CI95)
	fmt.Printf("latency per packet:    %.2f ± %.2f ms\n", agg.MeanLatency.Mean*1e3, agg.MeanLatency.CI95*1e3)
	fmt.Printf("hops per packet:       %.2f ± %.2f\n", agg.HopsPerPacket.Mean, agg.HopsPerPacket.CI95)
	fmt.Printf("random forwarders:     %.2f ± %.2f\n", agg.MeanRFs.Mean, agg.MeanRFs.CI95)
	fmt.Printf("participating nodes:   %.1f ± %.1f\n", agg.Participants.Mean, agg.Participants.CI95)
	fmt.Printf("route similarity:      %.3f ± %.3f\n", agg.RouteJaccard.Mean, agg.RouteJaccard.CI95)
}

// runTelemetry runs one seed with a telemetry tap threaded through the
// stack, writing the JSONL event stream to path and the run manifest to
// path+".manifest.json". The stream holds only simulated-time data, so two
// runs of the same scenario and seed produce byte-identical files; wall-
// clock quantities live in the manifest alone.
func runTelemetry(sc experiment.Scenario, path, layers string) (experiment.Result, error) {
	mask, err := telemetry.ParseLayers(layers)
	if err != nil {
		return experiment.Result{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return experiment.Result{}, err
	}
	defer f.Close() // for the error paths; success checks Close below
	tap := telemetry.New(f, mask)

	start := time.Now()
	res, w, err := experiment.RunWorld(sc, tap)
	if err != nil {
		return experiment.Result{}, err
	}
	wall := time.Since(start).Seconds()

	simEnd := sc.Duration + sc.DrainTime
	tap.WriteSnapshot(simEnd)
	if err := tap.Flush(); err != nil {
		return experiment.Result{}, err
	}
	if err := f.Close(); err != nil {
		return experiment.Result{}, err
	}

	mf, err := os.Create(path + ".manifest.json")
	if err != nil {
		return experiment.Result{}, err
	}
	defer mf.Close()
	m := telemetry.Manifest{
		ScenarioHash:    sc.Hash(),
		Seed:            sc.Seed,
		Protocol:        string(sc.Protocol),
		GoVersion:       runtime.Version(),
		WallSeconds:     wall,
		SimSeconds:      simEnd,
		ProcessedEvents: w.Eng.Processed(),
		EmittedEvents:   tap.Events(),
	}
	if err := m.Encode(mf); err != nil {
		return experiment.Result{}, err
	}
	if err := mf.Close(); err != nil {
		return experiment.Result{}, err
	}
	fmt.Printf("telemetry: %d events -> %s (manifest %s.manifest.json)\n",
		tap.Events(), path, path)
	return res, nil
}

// printRouteMap runs one packet on a fresh copy of the scenario and renders
// its route as an ASCII map (svgPath == "") or an SVG file.
func printRouteMap(sc experiment.Scenario, svgPath string) {
	w, err := experiment.Build(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pairs := w.ChoosePairs()[:1]
	w.StartWorkload(pairs)
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
		if svgPath != "" {
			title := fmt.Sprintf("%s route, %d hops", sc.Protocol, r.Hops)
			svg := trace.RouteSVG(w.Net.Field(), positions, r.Path, r.Src, r.Dst,
				zd, trace.SVGOptions{Title: title})
			if err := os.WriteFile(svgPath, []byte(svg), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println("wrote", svgPath)
			return
		}
		fmt.Println("route of one delivered packet ('S' source, 'D' destination,")
		fmt.Println("numbered relays in hop order, '#' destination zone):")
		m, err := trace.RouteMap(w.Net.Field(), positions, r.Path, r.Src, r.Dst,
			zd, 76, 30)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(m)
		return
	}
	fmt.Println("(no packet delivered in the first 10 s; no map)")
}
