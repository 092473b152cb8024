package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

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

// TestRunBothInProcess drives the CLI end to end on the frozen 5-node GPSR
// topology of live's TestFiveNodeExactPath: the sim run, the in-process
// fleet and the band check must all succeed, and every output file must
// be written.
func TestRunBothInProcess(t *testing.T) {
	out := t.TempDir()
	err := run([]string{"-mode", "both", "-protocol", "gpsr", "-seed", "15", "-n", "5",
		"-field", "600x600", "-mobility", "static", "-duration", "10", "-drain", "2",
		"-pairs", "2", "-interval", "2", "-timescale", "0.05", "-out", out})
	if err != nil {
		t.Fatalf("run: %v", err)
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
