package experiment

// The registry contract: every entry of Figures() renders, in every output
// format, and an entry's Plan names exactly the cells its render asks the
// runner for — so a campaign that executes the planned grids leaves every
// render a memo hit. Simulation entries take both from one cells function,
// so what this still catches is a render that asks for cells outside its
// batch, and an entry without a Plan that runs cells. The attack entries'
// values are pinned in testdata/attacks_golden.json.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// memoRunner executes each distinct cell once, serially, and records the
// key of every cell a render requests.
type memoRunner struct {
	runs  map[string]Result
	rems  map[string]RemainingResult
	asked map[string]bool
}

func newMemoRunner() *memoRunner {
	return &memoRunner{runs: map[string]Result{}, rems: map[string]RemainingResult{},
		asked: map[string]bool{}}
}

func (m *memoRunner) RunBatch(cells []Scenario) ([]Result, error) {
	out := make([]Result, len(cells))
	for i, sc := range cells {
		k := sc.Hash()
		m.asked[k] = true
		if _, ok := m.runs[k]; !ok {
			r, err := Run(sc)
			if err != nil {
				return nil, err
			}
			m.runs[k] = r
		}
		out[i] = m.runs[k]
	}
	return out, nil
}

func (m *memoRunner) RemainingBatch(cells []RemainingSpec) ([]RemainingResult, error) {
	out := make([]RemainingResult, len(cells))
	for i, spec := range cells {
		k := spec.Hash()
		m.asked[k] = true
		if _, ok := m.rems[k]; !ok {
			r, err := RunRemaining(spec)
			if err != nil {
				return nil, err
			}
			m.rems[k] = r
		}
		out[i] = m.rems[k]
	}
	return out, nil
}

func planKeys(p FigurePlan) map[string]bool {
	keys := map[string]bool{}
	for _, sc := range p.Runs {
		keys[sc.Hash()] = true
	}
	for _, spec := range p.Remaining {
		keys[spec.Hash()] = true
	}
	return keys
}

func TestRegistry(t *testing.T) {
	const seeds = 1
	r := newMemoRunner()
	names := map[string]bool{}
	for _, f := range Figures() {
		if names[f.Name] {
			t.Errorf("%s: duplicate name", f.Name)
		}
		names[f.Name] = true
		if (f.Render == nil) == (f.Text == nil) {
			t.Errorf("%s: want exactly one of Render and Text set", f.Name)
			continue
		}
		if got, ok := FindFigure(f.Name); !ok || got.Title != f.Title {
			t.Errorf("%s: FindFigure does not return the entry", f.Name)
		}

		r.asked = map[string]bool{}
		for _, format := range []string{"text", "csv", "md"} {
			out, err := f.Output(format, r, seeds)
			if err != nil {
				t.Fatalf("%s (%s): %v", f.Name, format, err)
			}
			if !strings.Contains(string(out), f.Title) {
				t.Errorf("%s (%s): output lacks the title %q", f.Name, format, f.Title)
			}
			if strings.Contains(string(out), "(no data)") {
				t.Errorf("%s (%s): no data", f.Name, format)
			}
		}
		if f.Plan == nil {
			if len(r.asked) != 0 {
				t.Errorf("%s: has no Plan but its render requests %d cells", f.Name, len(r.asked))
			}
			continue
		}
		plan := planKeys(f.Plan(seeds))
		if len(plan) == 0 {
			continue // adaptive: its cells are only known at render time
		}
		unplanned, unrequested := 0, 0
		for k := range r.asked {
			if !plan[k] {
				unplanned++
			}
		}
		for k := range plan {
			if !r.asked[k] {
				unrequested++
			}
		}
		if unplanned != 0 || unrequested != 0 {
			t.Errorf("%s: render requests %d cells its Plan lacks, and Plan has %d cells the render never requests",
				f.Name, unplanned, unrequested)
		}
	}
	if _, ok := FindFigure("nonesuch"); ok {
		t.Error("FindFigure found an unknown name")
	}
	if _, err := Figures()[0].Output("xml", r, seeds); err == nil {
		t.Error("Output accepted an unknown format")
	}
	if _, ok := FormatExt("xml"); ok {
		t.Error("FormatExt accepted an unknown format")
	}
}

const attacksGoldenPath = "testdata/attacks_golden.json"

// attackEntries are the Section 3 attack entries of the registry.
var attackEntries = []string{"intersection", "source", "timing", "interception", "dos"}

// TestAttackGoldenSeries pins the attack entries' series at two seeds.
// Re-bless with -update only for an intended behaviour change.
func TestAttackGoldenSeries(t *testing.T) {
	got := map[string]string{}
	for _, name := range attackEntries {
		f, ok := FindFigure(name)
		if !ok {
			t.Fatalf("%s: not in the registry", name)
		}
		series, err := f.Render(newMemoRunner(), 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		for _, s := range series {
			fmt.Fprintf(h, "%s|%v|%v|%v\n", s.Label, s.X, s.Y, s.Err)
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(attacksGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-blessed %s", attacksGoldenPath)
		return
	}

	data, err := os.ReadFile(attacksGoldenPath)
	if err != nil {
		t.Fatalf("read attack golden corpus (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", attacksGoldenPath, err)
	}
	for _, name := range attackEntries {
		if got[name] != want[name] {
			t.Errorf("%s: series digest %s, golden %s — attack output changed", name, got[name], want[name])
		}
	}
	if len(want) != len(attackEntries) {
		t.Errorf("golden corpus has %d entries, want %d; re-bless with -update", len(want), len(attackEntries))
	}
}
