// alertd runs one ALERT (or GPSR) node as a real UDP daemon: the full
// router stack from internal/live behind a loopback-bound data socket,
// plus a tiny HTTP control plane a coordinator uses to push emulated
// topology, start flows and scrape reports. Spawn N of these,
// point cmd/alertload at their control addresses, and you have the paper's
// scenario running as actual datagrams instead of simulator events.
//
// Usage:
//
//	alertd -id 3 -n 50 -protocol alert -seed 42 -addr-file /tmp/node3.addr
//
// The addr file receives "<control-addr> <udp-addr>\n" once both sockets
// are bound (write-then-rename, so a watcher never reads a torn line). The
// process exits on SIGINT/SIGTERM or a POST to /v1/quit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/live"
	"alertmanet/internal/telemetry"
)

func parseField(s string) (geo.Rect, error) {
	var w, h float64
	if _, err := fmt.Sscanf(strings.ToLower(s), "%fx%f", &w, &h); err != nil || w <= 0 || h <= 0 {
		return geo.Rect{}, fmt.Errorf("alertd: -field wants WxH (e.g. 1000x1000), got %q", s)
	}
	return geo.Rect{Max: geo.Point{X: w, Y: h}}, nil
}

func run() error {
	fs := flag.NewFlagSet("alertd", flag.ExitOnError)
	id := fs.Int("id", -1, "node id (required; also selects this node's keys and rng stream)")
	udp := fs.String("udp", "127.0.0.1:0", "UDP data-plane bind address")
	control := fs.String("control", "127.0.0.1:0", "HTTP control-plane bind address")
	addrFile := fs.String("addr-file", "", "write '<control> <udp>' here once bound")
	protocol := fs.String("protocol", "alert", "routing protocol: alert|gpsr")
	seed := fs.Int64("seed", 1, "fleet-wide scenario seed (must match every other node)")
	n := fs.Int("n", experiment.DefaultScenario().N, "fleet size (sets the default partition depth)")
	field := fs.String("field", "1000x1000", "field dimensions WxH in metres")
	hmax := fs.Int("hmax", 0, "ALERT partition depth override (0 = derive from -n)")
	packetSize := fs.Int("packet-size", 0, "payload size in bytes (0 = scenario default)")
	loss := fs.Float64("loss", 0, "per-frame Bernoulli loss rate for the emulated medium")
	noARQ := fs.Bool("no-arq", false, "disable link-layer retransmission")
	timescale := fs.Float64("timescale", 1.0, "wall-clock seconds per emulated second")
	chargeSetup := fs.Bool("charge-setup", false, "charge asymmetric session setup on each flow's first packet")
	fixedAxis := fs.Bool("fixed-axis", false, "always split zones on the same axis (paper's simplified partition)")
	tele := fs.String("telemetry", "", "write this node's JSONL telemetry stream here")
	teleLayers := fs.String("telemetry-layers", "all", "comma-separated telemetry layers (see tlmgrep)")
	fs.Parse(os.Args[1:])

	if *id < 0 {
		return fmt.Errorf("alertd: -id is required")
	}
	rect, err := parseField(*field)
	if err != nil {
		return err
	}

	// Route all knobs through the scenario so DaemonConfigFor stays the one
	// sim-to-live parameter mapping; a fleet is consistent iff every member
	// got identical scenario-level flags.
	sc := experiment.DefaultScenario()
	sc.Protocol = experiment.ProtocolName(*protocol)
	sc.Seed = *seed
	sc.N = *n
	sc.Field = rect
	sc.LossRate = *loss
	sc.NoARQ = *noARQ
	if *hmax > 0 {
		sc.Alert.H = *hmax
	}
	if *packetSize > 0 {
		sc.PacketSize = *packetSize
	}
	sc.Alert.ChargeSessionSetup = *chargeSetup
	sc.Alert.FixedAxisPartition = *fixedAxis

	d, err := live.NewDaemon(live.DaemonConfigFor(sc, *id, *timescale), *udp)
	if err != nil {
		return err
	}
	if *tele != "" {
		mask, err := telemetry.ParseLayers(*teleLayers)
		if err != nil {
			return err
		}
		f, err := os.Create(*tele)
		if err != nil {
			return err
		}
		defer f.Close()
		d.SetTap(telemetry.New(f, mask)) // Close flushes it
	}
	d.Start()
	defer d.Close()

	cs, err := live.NewControlServer(d, *control)
	if err != nil {
		return err
	}
	defer cs.Close()

	bound := cs.Addr().String() + " " + d.UDPAddr().String()
	if *addrFile != "" {
		// Write-then-rename so a watcher never reads a half-written file.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "alertd: node %d (%s) control http://%s data udp://%s\n",
		*id, *protocol, cs.Addr(), d.UDPAddr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case <-cs.Quit:
	case <-sigc:
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
