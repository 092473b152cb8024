// alertload is the load harness that closes the sim-vs-live loop: it runs
// the same scenario through the discrete-event simulator and through an
// in-process fleet of live UDP daemons, writes per-packet JSONL
// measurement logs for both sides, and checks the live numbers against the
// sim numbers under explicit tolerance bands (live.Compare).
//
// Usage:
//
//	alertload -protocol alert -n 50 -seed 42 -out /tmp/run      # sim+live+check
//	alertload -mode live -protocol gpsr -n 5 -seed 7            # live only
//	alertload -mode sim -protocol gpsr -n 200                   # sim only
//
// In mode "both" the exit status is nonzero when a metric falls outside
// its band.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/live"
	"alertmanet/internal/telemetry"
)

type config struct {
	sc         experiment.Scenario
	mode       string
	timescale  float64
	outDir     string
	teleDir    string
	teleLayers string
}

func parseField(s string) (geo.Rect, error) {
	var w, h float64
	if _, err := fmt.Sscanf(strings.ToLower(s), "%fx%f", &w, &h); err != nil || w <= 0 || h <= 0 {
		return geo.Rect{}, fmt.Errorf("alertload: -field wants WxH (e.g. 1000x1000), got %q", s)
	}
	return geo.Rect{Max: geo.Point{X: w, Y: h}}, nil
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("alertload", flag.ExitOnError)
	protocol := fs.String("protocol", "alert", "routing protocol: alert|gpsr|alarm|ao2p|zap (live runs alert and gpsr)")
	seed := fs.Int64("seed", 1, "scenario seed")
	n := fs.Int("n", 50, "fleet size")
	field := fs.String("field", "1000x1000", "field dimensions WxH in metres")
	duration := fs.Float64("duration", 30, "traffic duration in emulated seconds")
	drain := fs.Float64("drain", 5, "drain time after traffic stops")
	pairs := fs.Int("pairs", 5, "concurrent source-destination pairs")
	interval := fs.Float64("interval", 2, "seconds between packets of one pair")
	packets := fs.Int("packets", 0, "cap packets per pair (0 = until duration)")
	packetSize := fs.Int("packet-size", 512, "payload size in bytes")
	loss := fs.Float64("loss", 0, "per-frame Bernoulli loss rate")
	mob := fs.String("mobility", "static", "mobility model: static|rwp|group")
	speed := fs.Float64("speed", 2, "node speed for mobile models, m/s")
	chargeSetup := fs.Bool("charge-setup", false, "charge asymmetric session setup on first packets")
	mode := fs.String("mode", "both", "what to run: sim|live|both")
	timescale := fs.Float64("timescale", 0.05, "wall-clock seconds per emulated second (live)")
	out := fs.String("out", "", "directory for JSONL measurement logs and summaries")
	tele := fs.String("telemetry", "", "directory for the live fleet's per-node JSONL telemetry streams")
	teleLayers := fs.String("telemetry-layers", "all", "comma-separated telemetry layers (see tlmgrep)")
	fs.Parse(args)

	rect, err := parseField(*field)
	if err != nil {
		return config{}, err
	}
	sc := experiment.DefaultScenario()
	sc.Protocol = experiment.ProtocolName(*protocol)
	sc.Seed = *seed
	sc.N = *n
	sc.Field = rect
	sc.Duration = *duration
	sc.DrainTime = *drain
	sc.Pairs = *pairs
	sc.Interval = *interval
	sc.Packets = *packets
	sc.PacketSize = *packetSize
	sc.LossRate = *loss
	sc.Mobility = experiment.MobilityName(*mob)
	sc.Speed = *speed
	sc.LocUpdates = *mob != "static"
	sc.Alert.ChargeSessionSetup = *chargeSetup
	if err := sc.Validate(); err != nil {
		return config{}, err
	}
	switch *mode {
	case "sim", "live", "both":
	default:
		return config{}, fmt.Errorf("alertload: -mode wants sim|live|both, got %q", *mode)
	}
	if *mode != "sim" && sc.Protocol != experiment.ALERT && sc.Protocol != experiment.GPSR {
		return config{}, fmt.Errorf("alertload: -protocol %s runs only in -mode sim; live runs alert and gpsr", *protocol)
	}
	return config{
		sc: sc, mode: *mode, timescale: *timescale,
		outDir: *out, teleDir: *tele, teleLayers: *teleLayers,
	}, nil
}

// writeJSONL writes one JSON document per element, one per line — the
// standard shape for downstream jq/pandas slicing.
func writeJSONL[T any](path string, items []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSim executes the scenario in the simulator and returns the result
// plus the per-packet records for the JSONL log.
func runSim(cfg config) (experiment.Result, error) {
	res, w, err := experiment.RunWorld(cfg.sc, nil)
	if err != nil {
		return experiment.Result{}, err
	}
	if cfg.outDir != "" {
		recs := w.Proto.Collector().Records()
		if err := writeJSONL(filepath.Join(cfg.outDir, "sim_packets.jsonl"), recs); err != nil {
			return experiment.Result{}, err
		}
		if err := writeJSONFile(filepath.Join(cfg.outDir, "sim_summary.json"), res); err != nil {
			return experiment.Result{}, err
		}
	}
	return res, nil
}

// runLive executes the scenario on an in-process live fleet and logs the
// measurements.
func runLive(cfg config) (live.Summary, error) {
	var sum live.Summary
	var err error
	if cfg.teleDir != "" {
		sum, err = runLiveWithTelemetry(cfg)
	} else {
		sum, err = live.RunFleet(cfg.sc, cfg.timescale)
	}
	if err != nil {
		return live.Summary{}, err
	}
	if cfg.outDir != "" {
		if err := writeJSONL(filepath.Join(cfg.outDir, "live_sends.jsonl"), sum.Sends); err != nil {
			return live.Summary{}, err
		}
		if err := writeJSONL(filepath.Join(cfg.outDir, "live_deliveries.jsonl"), sum.Deliveries); err != nil {
			return live.Summary{}, err
		}
		if err := writeJSONFile(filepath.Join(cfg.outDir, "live_summary.json"), sum); err != nil {
			return live.Summary{}, err
		}
	}
	return sum, nil
}

// runLiveWithTelemetry runs the in-process fleet with every node's tap
// writing a per-node JSONL stream under -telemetry; the streams use the
// same event schema as sim telemetry, so tlmgrep slices them unchanged.
func runLiveWithTelemetry(cfg config) (live.Summary, error) {
	mask, err := telemetry.ParseLayers(cfg.teleLayers)
	if err != nil {
		return live.Summary{}, err
	}
	if err := os.MkdirAll(cfg.teleDir, 0o755); err != nil {
		return live.Summary{}, err
	}
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	var openErr error
	tapFor := func(id int) *telemetry.Tap {
		f, err := os.Create(filepath.Join(cfg.teleDir, fmt.Sprintf("node_%03d.jsonl", id)))
		if err != nil {
			openErr = err
			return nil
		}
		files = append(files, f)
		return telemetry.New(f, mask)
	}
	fl, err := live.SpawnFleetWithTaps(cfg.sc, cfg.timescale, tapFor)
	if err != nil {
		return live.Summary{}, err
	}
	defer fl.Close()
	if openErr != nil {
		return live.Summary{}, openErr
	}
	return live.NewCoordinator(fl.World, fl.Handles(), cfg.timescale).Run()
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
	}

	var simRes experiment.Result
	var liveSum live.Summary
	if cfg.mode != "live" {
		if simRes, err = runSim(cfg); err != nil {
			return err
		}
		fmt.Printf("sim:  sent %d delivered %d rate %.3f meanlat %.4fs hops %.2f\n",
			simRes.Sent, simRes.Delivered, simRes.DeliveryRate, simRes.MeanLatency, simRes.HopsPerPacket)
	}
	if cfg.mode != "sim" {
		if liveSum, err = runLive(cfg); err != nil {
			return err
		}
		fmt.Printf("live: sent %d delivered %d rate %.3f meanlat %.4fs hops %.2f\n",
			liveSum.Sent, liveSum.Delivered, liveSum.DeliveryRate, liveSum.MeanLatency, liveSum.HopsPerPkt)
	}
	if cfg.mode != "both" {
		return nil
	}

	cmp := live.Compare(simRes, liveSum)
	fmt.Print(cmp.String())
	if cfg.outDir != "" {
		if err := writeJSONFile(filepath.Join(cfg.outDir, "compare.json"), cmp); err != nil {
			return err
		}
	}
	if !cmp.OK {
		return fmt.Errorf("alertload: live run outside tolerance bands")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
