package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"alertmanet/internal/telemetry"
)

// update re-blesses testdata/golden.json from the current behaviour:
//
//	go test ./internal/experiment -run TestGolden -update
//
// Only do this after convincing yourself the behaviour change is intended —
// the whole point of the corpus is that refactors (like threading a
// telemetry tap through the stack) must NOT move these digests.
var update = flag.Bool("update", false, "rewrite testdata/golden.json from current behaviour")

// goldenEntry pins one protocol's end-to-end behaviour at paper defaults.
// ResultDigest hashes the full per-seed Result; StreamDigest hashes the
// complete telemetry JSONL stream (all layers + registry snapshot), which is
// sensitive to every event the run emits, in order. Sent/Delivered are
// duplicated in the clear so a mismatch gives a human a first clue, and
// Events, the engine's processed count, shows how many events a re-bless
// moved.
type goldenEntry struct {
	ResultDigest string `json:"result_digest"`
	StreamDigest string `json:"stream_digest"`
	Sent         int    `json:"sent"`
	Delivered    int    `json:"delivered"`
	Events       uint64 `json:"events"`
}

const goldenPath = "testdata/golden.json"

var goldenProtocols = []ProtocolName{ALERT, GPSR, ALARM, AO2P, ZAP}

// resultDigest hashes the complete Result struct. %+v rather than JSON:
// EnergyPerDelivered is +Inf when nothing is delivered, which json.Marshal
// rejects, and %+v also covers any future field automatically.
func resultDigest(r Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:])
}

// goldenRun executes one paper-default run with a full telemetry tap
// writing straight into a hash, returning the entry that pins it.
func goldenRun(t *testing.T, proto ProtocolName) goldenEntry {
	t.Helper()
	sc := DefaultScenario()
	sc.Protocol = proto

	h := sha256.New()
	tap := telemetry.New(h, telemetry.LayerAll)
	res, w, err := RunWorld(sc, tap)
	if err != nil {
		t.Fatalf("%s: %v", proto, err)
	}
	tap.WriteSnapshot(w.Eng.Now())
	if err := tap.Flush(); err != nil {
		t.Fatalf("%s: flush: %v", proto, err)
	}
	return goldenEntry{
		ResultDigest: resultDigest(res),
		StreamDigest: hex.EncodeToString(h.Sum(nil)),
		Sent:         res.Sent,
		Delivered:    res.Delivered,
		Events:       w.Eng.Processed(),
	}
}

// TestGoldenRuns locks the exact behaviour of all five protocols at the
// paper's evaluation defaults (seed 1). Any change to simulation order,
// RNG consumption, event scheduling or telemetry encoding moves a digest
// and fails here; if the change is intended, re-bless with -update.
func TestGoldenRuns(t *testing.T) {
	got := make(map[string]goldenEntry, len(goldenProtocols))
	for _, proto := range goldenProtocols {
		got[string(proto)] = goldenRun(t, proto)
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-blessed %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden corpus (run with -update to create): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	for _, proto := range goldenProtocols {
		name := string(proto)
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from golden corpus; re-bless with -update", name)
			continue
		}
		g := got[name]
		if g.Sent != w.Sent || g.Delivered != w.Delivered {
			t.Errorf("%s: sent/delivered %d/%d, golden %d/%d",
				name, g.Sent, g.Delivered, w.Sent, w.Delivered)
		}
		if g.Events != w.Events {
			t.Errorf("%s: %d events processed, golden %d", name, g.Events, w.Events)
		}
		if g.ResultDigest != w.ResultDigest {
			t.Errorf("%s: Result digest %s, golden %s — run behaviour changed",
				name, g.ResultDigest, w.ResultDigest)
		}
		if g.StreamDigest != w.StreamDigest {
			t.Errorf("%s: telemetry stream digest %s, golden %s — event stream changed",
				name, g.StreamDigest, w.StreamDigest)
		}
	}
}

// TestGoldenStreamStable is the same-process determinism half of the
// contract: two identical runs in one process must produce byte-identical
// telemetry streams and identical Results. (TestGoldenRuns extends this
// across processes and machines via the committed digests.)
func TestGoldenStreamStable(t *testing.T) {
	a := goldenRun(t, ALERT)
	b := goldenRun(t, ALERT)
	if a != b {
		t.Fatalf("same-seed runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestGoldenTelemetryInert: a run with the tap attached must produce the
// same Result as one without — observation cannot perturb the experiment.
func TestGoldenTelemetryInert(t *testing.T) {
	sc := DefaultScenario()
	sc.Protocol = ALERT

	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	tap := telemetry.New(discard{}, telemetry.LayerAll)
	tapped, _, err := RunWorld(sc, tap)
	if err != nil {
		t.Fatal(err)
	}
	if resultDigest(plain) != resultDigest(tapped) {
		t.Fatalf("telemetry perturbed the run:\nplain:  %+v\ntapped: %+v", plain, tapped)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
