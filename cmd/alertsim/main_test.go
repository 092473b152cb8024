package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
)

func mustParse(t *testing.T, args ...string) *options {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return o
}

// TestNoFlagsRunsDefaultScenario pins every flag default to
// experiment.DefaultScenario(): no paper value is restated in the CLI.
func TestNoFlagsRunsDefaultScenario(t *testing.T) {
	if got, want := mustParse(t).sc, experiment.DefaultScenario(); got.Hash() != want.Hash() {
		t.Fatalf("no flags run %+v, want DefaultScenario %+v", got, want)
	}
}

// TestPresetsRunAsWritten checks that -preset P alone runs exactly P's
// scenario. Assigning every flag's default after the preset overwrote it
// with the paper default, so only paper-default ran as written.
func TestPresetsRunAsWritten(t *testing.T) {
	for _, p := range experiment.Presets() {
		if got := mustParse(t, "-preset", p.Name).sc; got.Hash() != p.Scenario.Hash() {
			t.Errorf("-preset %s runs %+v, want %+v", p.Name, got, p.Scenario)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-preset", "sparse", "-duration", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "scenario: alert, 50 nodes,") {
		t.Errorf("-preset sparse prints\n%s", out.String())
	}
}

// TestPresetFlagsOverride checks that a flag given with -preset changes
// only its own field, before or after -preset on the command line.
func TestPresetFlagsOverride(t *testing.T) {
	p, err := experiment.FindPreset("sparse")
	if err != nil {
		t.Fatal(err)
	}
	want := p.Scenario
	want.N = 80
	for _, args := range [][]string{{"-preset", "sparse", "-nodes", "80"}, {"-nodes", "80", "-preset", "sparse"}} {
		if got := mustParse(t, args...).sc; got.Hash() != want.Hash() {
			t.Errorf("%q runs %+v, want %+v", args, got, want)
		}
	}
}

// TestScenarioFlags checks that each scenario flag sets its one field.
func TestScenarioFlags(t *testing.T) {
	got := mustParse(t, "-protocol", "gpsr", "-seed", "7", "-nodes", "30", "-field", "600x400",
		"-speed", "3", "-mobility", "group", "-groups", "3", "-grouprange", "120", "-duration", "20",
		"-drain", "4", "-pairs", "3", "-interval", "1", "-packets", "5", "-packet-size", "256",
		"-workload", "poisson", "-loss", "0.1", "-no-updates", "-k", "4", "-H", "3", "-notify-and-go",
		"-intersection-guard", "-confirm", "-naks", "-charge-setup").sc
	want := experiment.DefaultScenario()
	want.Protocol, want.Seed, want.N = experiment.GPSR, 7, 30
	want.Field = geo.Rect{Max: geo.Point{X: 600, Y: 400}}
	want.Speed, want.Mobility, want.Groups, want.GroupRange = 3, experiment.GroupMobility, 3, 120
	want.Duration, want.DrainTime, want.Pairs, want.Interval = 20, 4, 3, 1
	want.Packets, want.PacketSize, want.Workload, want.LossRate = 5, 256, experiment.Poisson, 0.1
	want.LocUpdates, want.Alert.K, want.Alert.H = false, 4, 3
	want.Alert.NotifyAndGo, want.Alert.IntersectionGuard = true, true
	want.Alert.Confirm, want.Alert.NAKs, want.Alert.ChargeSessionSetup = true, true, true
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags run\n%+v\nwant\n%+v", got, want)
	}
	if sc := mustParse(t, "-ns2-trace", "moves.tcl").sc; sc.Mobility != experiment.NS2Trace || sc.NS2TracePath != "moves.tcl" {
		t.Errorf("-ns2-trace sets mobility %q path %q", sc.Mobility, sc.NS2TracePath)
	}
	if _, err := parseFlags([]string{"-field", "10x"}); err == nil {
		t.Error("-field 10x accepted")
	}
}

// TestParseFlagsLiveProtocols pins which protocols reach a live fleet: the
// comparators run only in -mode sim, and are refused before any fleet is
// spawned in -mode live and -mode both.
func TestParseFlagsLiveProtocols(t *testing.T) {
	for _, p := range []string{"alert", "gpsr", "ao2p", "alarm", "zap"} {
		live := p == "alert" || p == "gpsr"
		for _, mode := range []string{"sim", "live", "both"} {
			_, err := parseFlags([]string{"-protocol", p, "-mode", mode})
			if ok := mode == "sim" || live; ok != (err == nil) {
				t.Errorf("-protocol %s -mode %s: err = %v, want accepted = %v", p, mode, err, ok)
			}
		}
	}
}

// TestRejectsBeforeRunning checks that what a live fleet cannot run —
// comparators, non-CBR workloads, ALERT's notify-and-go, intersection
// guard, confirmations and NAKs, several seeds — and other bad command
// lines fail as usage errors before anything runs or prints, while -mode
// sim takes the same workloads, options and seeds.
func TestRejectsBeforeRunning(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "live", "-protocol", "zap"},
		{"-mode", "both", "-workload", "poisson"},
		{"-mode", "live", "-workload", "burst"},
		{"-mode", "live", "-notify-and-go"},
		{"-mode", "both", "-notify-and-go"},
		{"-mode", "live", "-intersection-guard"},
		{"-mode", "both", "-intersection-guard"},
		{"-mode", "live", "-confirm"},
		{"-mode", "both", "-confirm"},
		{"-mode", "live", "-naks"},
		{"-mode", "both", "-naks"},
		{"-mode", "live", "-preset", "covert"},
		{"-mode", "both", "-preset", "battlefield"},
		{"-mode", "live", "-preset", "lossy"},
		{"-mode", "both", "-seeds", "2"},
		{"-mode", "bogus"},
		{"-seeds", "2", "-telemetry", "run.jsonl"},
		{"-seeds", "2", "-out", "dir"},
		{"-nodes", "1"},
		{"-packet-size", "-1000"},
		{"-packet-size", "0"},
		{"-field", "NaNx1000"},
		{"-field", "Infx1000"},
		{"-speed", "NaN"},
		{"-speed", "Inf"},
		{"-mobility", "group", "-grouprange", "NaN"},
		{"-interval", "NaN"},
		{"-drain", "NaN"},
		{"-loss", "NaN"},
		{"-preset", "nonesuch"},
		{"-tlm-layers", "radio"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if !errors.As(err, new(usageError)) || out.Len() != 0 {
			t.Errorf("%q: err %v, printed %q; want a usage error and no output", args, err, out.String())
		}
	}
	for _, args := range [][]string{{"-workload", "poisson", "-seeds", "2"}, {"-workload", "burst"},
		{"-notify-and-go", "-intersection-guard", "-confirm", "-naks"}, {"-preset", "covert"},
		{"-mode", "both", "-protocol", "gpsr", "-notify-and-go", "-confirm"}} {
		mustParse(t, args...)
	}
}

// TestRunBothInProcess drives the CLI end to end on the frozen 5-node GPSR
// topology of live's TestFiveNodeExactPath (make live-smoke's command): the
// sim run, the in-process fleet and the band check must all succeed, and
// every output file must be written.
func TestRunBothInProcess(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	err := run([]string{"-mode", "both", "-protocol", "gpsr", "-seed", "15", "-nodes", "5",
		"-field", "600x600", "-mobility", "static", "-no-updates", "-duration", "10", "-drain", "2",
		"-pairs", "2", "-interval", "2", "-timescale", "0.05", "-out", out}, &stdout)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	for _, re := range []string{
		`(?m)^sim:  sent 10 delivered 10 rate 1\.000 meanlat 0\.0065s hops 2\.50$`,
		`(?m)^live: sent 10 delivered 10 rate 1\.000 meanlat \S+ hops 2\.50$`,
		`(?m)^overall: true$`,
	} {
		if !regexp.MustCompile(re).MatchString(stdout.String()) {
			t.Errorf("output lacks %s:\n%s", re, stdout.String())
		}
	}
	for _, name := range []string{"sim_packets.jsonl", "sim_summary.json", "live_sends.jsonl",
		"live_deliveries.jsonl", "live_summary.json", "compare.json"} {
		if fi, err := os.Stat(filepath.Join(out, name)); err != nil || fi.Size() == 0 {
			t.Errorf("output %s missing or empty (err %v)", name, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(out, "compare.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cmp struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(raw, &cmp); err != nil {
		t.Fatalf("compare.json: %v", err)
	}
	if !cmp.OK {
		t.Fatalf("compare.json does not read \"ok\": true:\n%s", raw)
	}
}

// TestRunLiveTelemetry runs -mode live with per-node telemetry: one
// stream per daemon, and the relays' streams hold their hops.
func TestRunLiveTelemetry(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	err := run([]string{"-mode", "live", "-protocol", "gpsr", "-seed", "15", "-nodes", "5",
		"-field", "600x600", "-mobility", "static", "-no-updates", "-duration", "4", "-drain", "1",
		"-pairs", "1", "-timescale", "0.02", "-live-telemetry", dir, "-tlm-layers", "route"}, &stdout)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "live: sent 2 delivered 2 ") || strings.Contains(stdout.String(), "sim:") {
		t.Errorf("-mode live prints\n%s", stdout.String())
	}
	var hops int
	for id := 0; id < 5; id++ {
		raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("node_%03d.jsonl", id)))
		if err != nil {
			t.Fatal(err)
		}
		hops += strings.Count(string(raw), `"kind":"hop"`)
	}
	if hops == 0 {
		t.Error("no node stream records a hop")
	}
}

// TestRunSimOutputs covers -mode sim's outputs: the metrics block, the
// telemetry stream and manifest, the -out logs, the route map and SVG,
// the profiles, seed aggregation and the preset list.
func TestRunSimOutputs(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	var stdout bytes.Buffer
	err := run([]string{"-nodes", "60", "-duration", "6", "-telemetry", path("run.jsonl"),
		"-tlm-layers", "packet", "-out", path("out"), "-map", "-svg", path("route.svg"),
		"-pprof", path("cpu.pprof"), "-trace", path("go.trace")}, &stdout)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	for _, want := range []string{"packets sent:          ", "telemetry: ", "route of one delivered packet", "wrote "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}
	for _, name := range []string{"run.jsonl", "run.jsonl.manifest.json", "out/sim_packets.jsonl",
		"out/sim_summary.json", "route.svg", "cpu.pprof", "go.trace"} {
		if fi, err := os.Stat(path(name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty (err %v)", name, err)
		}
	}

	stdout.Reset()
	if err := run([]string{"-nodes", "40", "-duration", "4", "-seeds", "2", "-progress"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if s := stdout.String(); !strings.Contains(s, "(2/2)") || !strings.Contains(s, "aggregated over 2 runs") {
		t.Errorf("-seeds 2 -progress prints\n%s", s)
	}

	stdout.Reset()
	if err := run([]string{"-list-presets"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(stdout.String(), "\n"); got != len(experiment.Presets()) {
		t.Errorf("-list-presets prints %d lines, want %d", got, len(experiment.Presets()))
	}
}
