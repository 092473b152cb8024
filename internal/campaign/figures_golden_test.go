package campaign

// The figure-golden contract: every figure rendered through the full
// Engine — worker pool, JSONL store, content-addressed cache — must
// reproduce the exact series digests pinned in
// internal/experiment/testdata/figures_golden.json, which were captured
// from the pre-campaign figure code (TestFigureGoldenSeries, which also
// takes the -update re-bless). An engine resolving everything from the
// cache alone must match again: the JSON wire format is value-exact
// (TestEngineFigureGoldenSeries).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"alertmanet/internal/analysis"
	"alertmanet/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite the figure golden corpus from current behaviour")

const figuresGoldenPath = "../experiment/testdata/figures_golden.json"

// figureDigest hashes labeled series into the figure-golden fingerprint.
func figureDigest(series []analysis.Series) string {
	h := sha256.New()
	for _, s := range series {
		fmt.Fprintf(h, "%s|%v|%v|%v\n", s.Label, s.X, s.Y, s.Err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// engineFigures computes every figure's digest at the golden corpus's
// pinned capture parameters, through the given runner.
func engineFigures(t *testing.T, r experiment.Runner) map[string]string {
	t.Helper()
	got := map[string]string{}
	record := func(name string) func(s []analysis.Series, err error) {
		return func(s []analysis.Series, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name] = figureDigest(s)
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
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	h := sha256.New()
	for _, c := range comps {
		fmt.Fprintf(h, "%+v\n", c)
	}
	got["compare"] = hex.EncodeToString(h.Sum(nil))
	return got
}

// loadFigureGoldens reads the pinned digests.
func loadFigureGoldens(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(figuresGoldenPath)
	if err != nil {
		t.Fatalf("read figure golden corpus (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", figuresGoldenPath, err)
	}
	return want
}

// checkFigureGoldens reports every digest of one pass that differs from,
// or is missing in, the golden corpus.
func checkFigureGoldens(t *testing.T, phase string, want, got map[string]string) {
	t.Helper()
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s/%s: digest %s, golden %s — figure output changed",
				phase, name, got[name], w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s/%s: missing from golden corpus; re-bless with -update", phase, name)
		}
	}
}

// TestFigureGoldenSeries: the full engine reproduces the pinned figure
// output exactly. Re-bless with -update only for an intended behaviour
// change.
func TestFigureGoldenSeries(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	hot := &Engine{Store: store, Cache: cache}
	got := engineFigures(t, hot)
	if st := hot.Snapshot(); st.Executed == 0 {
		t.Fatal("engine pass should have executed cells")
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figuresGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-blessed %s", figuresGoldenPath)
		return
	}
	checkFigureGoldens(t, "engine", loadFigureGoldens(t), got)
}

// TestEngineFigureGoldenSeries: after an engine pass fills the cache, a
// cache-only engine reproduces the pinned figure output from the
// serialized records alone.
func TestEngineFigureGoldenSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure twice")
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	engineFigures(t, &Engine{Cache: cache})

	cold := &Engine{Cache: cache}
	checkFigureGoldens(t, "cache", loadFigureGoldens(t), engineFigures(t, cold))
	if st := cold.Snapshot(); st.Executed != 0 {
		t.Fatalf("cache pass should execute nothing, got %+v", st)
	}
}
