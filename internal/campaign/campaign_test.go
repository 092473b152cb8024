package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alertmanet/internal/experiment"
	"alertmanet/internal/sim"
)

// smallCells builds n cheap, distinct full-run cells.
func smallCells(n int) []experiment.Scenario {
	cells := make([]experiment.Scenario, n)
	for i := range cells {
		sc := experiment.DefaultScenario()
		sc.N = 50
		sc.Duration = 10
		sc.Pairs = 4
		sc.Seed = int64(i + 1)
		cells[i] = sc
	}
	return cells
}

// serialRuns executes the cells one by one through experiment.Run, the
// reference every engine result must equal bit for bit.
func serialRuns(t *testing.T, cells []experiment.Scenario) []experiment.Result {
	t.Helper()
	out := make([]experiment.Result, len(cells))
	for i, sc := range cells {
		r, err := experiment.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// TestEngineMatchesDirect pins the engine's whole persistence stack to the
// direct path: the same cells through (a) serial experiment.Run, (b) a
// fresh engine with store+cache, and (c) a second engine resolving purely
// from that cache, must yield identical results — i.e. a Result survives
// the JSONL round trip bit-for-bit, +Inf included.
func TestEngineMatchesDirect(t *testing.T) {
	cells := smallCells(4)
	direct := serialRuns(t, cells)

	cacheDir := t.TempDir()
	cache, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := &Engine{Store: store, Cache: cache}
	got, err := eng.RunBatch(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, got) {
		t.Fatalf("engine results differ from direct execution:\n%+v\nvs\n%+v", direct, got)
	}

	cold := &Engine{Cache: cache}
	fromCache, err := cold.RunBatch(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, fromCache) {
		t.Fatal("cache round trip changed results")
	}
	if st := cold.Snapshot(); st.Executed != 0 || st.CacheHits != len(cells) {
		t.Fatalf("cold engine should resolve all from cache, got %+v", st)
	}
}

// TestSeedDeterminismParallel is the regression test for the determinism
// contract alertlint enforces statically: results must not depend on
// scheduling. Seeds 1-4 of one scenario run twice on a four-worker engine
// (four workers overlap even on a one-CPU machine, so the race detector
// sees concurrent runs), and each seed's Result equals the other sweep's
// and a serial experiment.Run's, bit for bit.
func TestSeedDeterminismParallel(t *testing.T) {
	cells := make([]experiment.Scenario, 4)
	for i := range cells {
		cells[i] = experiment.DefaultScenario()
		cells[i].Duration = 20
		cells[i].Seed = int64(i + 1)
	}
	var sweeps [2][]experiment.Result
	for i := range sweeps {
		res, err := (&Engine{Jobs: 4}).RunBatch(cells)
		if err != nil {
			t.Fatal(err)
		}
		sweeps[i] = res
	}
	if !reflect.DeepEqual(sweeps[0], sweeps[1]) {
		t.Fatalf("two parallel sweeps disagree:\n%+v\nvs\n%+v", sweeps[0], sweeps[1])
	}
	for i, seq := range serialRuns(t, cells) {
		if !reflect.DeepEqual(seq, sweeps[0][i]) {
			t.Fatalf("seed %d: serial and parallel results differ:\n%+v\nvs\n%+v",
				cells[i].Seed, seq, sweeps[0][i])
		}
	}
}

// TestEngineDedupsBatch: duplicate cells in one batch execute once and every
// occurrence gets the same record.
func TestEngineDedupsBatch(t *testing.T) {
	cells := smallCells(2)
	batch := append(append([]experiment.Scenario{}, cells...), cells...)
	eng := &Engine{}
	results, err := eng.RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Snapshot(); st.Executed != 2 {
		t.Fatalf("want 2 executions for duplicated batch, got %+v", st)
	}
	if !reflect.DeepEqual(results[:2], results[2:]) {
		t.Fatal("duplicate cells returned different results")
	}
	// Re-running the same batch hits the memo only.
	if _, err := eng.RunBatch(batch); err != nil {
		t.Fatal(err)
	}
	if st := eng.Snapshot(); st.Executed != 2 || st.MemoHits != 2 {
		t.Fatalf("re-run should be all memo hits, got %+v", st)
	}
}

// TestResumeByteIdentical is the campaign contract test: a run killed after
// K cells leaves a store prefix, and resuming executes only the missing
// cells while producing a results.jsonl byte-identical to a never-killed
// run of the same campaign.
func TestResumeByteIdentical(t *testing.T) {
	cells := smallCells(8)
	const kill = 3

	// Reference: one uninterrupted campaign.
	fullDir := t.TempDir()
	fullStore, err := OpenStore(fullDir)
	if err != nil {
		t.Fatal(err)
	}
	full := &Engine{Store: fullStore, Jobs: 2}
	if _, err := full.RunBatch(cells); err != nil {
		t.Fatal(err)
	}
	if err := fullStore.Close(); err != nil {
		t.Fatal(err)
	}

	// Killed campaign: cancel after the kill-th executed cell. In-flight
	// cells finish; unscheduled ones fail with context.Canceled, and the
	// store keeps only the contiguous finished prefix.
	resDir := t.TempDir()
	store1, err := OpenStore(resDir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := &Engine{Store: store1, Jobs: 2}
	killed.OnCell = func(ev CellEvent) {
		if ev.Source == "run" && ev.Err == nil && ev.Done >= kill {
			cancel()
		}
	}
	killed.WithContext(ctx)
	if _, err := killed.RunBatch(cells); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: want context.Canceled, got %v", err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}
	partial, err := os.ReadFile(filepath.Join(resDir, resultsFile))
	if err != nil {
		t.Fatal(err)
	}
	fullBytes, err := os.ReadFile(filepath.Join(fullDir, resultsFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) == 0 || len(partial) >= len(fullBytes) {
		t.Fatalf("killed store should hold a proper prefix: %d of %d bytes",
			len(partial), len(fullBytes))
	}
	if string(fullBytes[:len(partial)]) != string(partial) {
		t.Fatal("killed store is not a prefix of the full store")
	}

	// Resume: reopen the same directory, run the same campaign.
	store2, err := OpenStore(resDir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := &Engine{Store: store2, Jobs: 2}
	res, err := resumed.RunBatch(cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
	st := resumed.Snapshot()
	if st.StoreHits != store1.Len() {
		t.Fatalf("resume should reuse all %d stored cells, got %+v", store1.Len(), st)
	}
	if st.Executed != len(cells)-store1.Len() {
		t.Fatalf("resume should execute only the %d missing cells, got %+v",
			len(cells)-store1.Len(), st)
	}
	merged, err := os.ReadFile(filepath.Join(resDir, resultsFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(merged) != string(fullBytes) {
		t.Fatal("resumed store is not byte-identical to the uninterrupted run")
	}

	// And the resumed results equal a direct run.
	if direct := serialRuns(t, cells); !reflect.DeepEqual(direct, res) {
		t.Fatal("resumed results differ from direct execution")
	}
}

// TestStoreStreamsAsCellsFinish: the store grows as cells finish, not at
// batch end — after the k-th executed cell's progress event, results.jsonl
// holds exactly k records, so a process killed mid-batch keeps every cell
// it reported.
func TestStoreStreamsAsCellsFinish(t *testing.T) {
	cells := smallCells(4)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var lines []int
	eng := &Engine{Store: store, Jobs: 1}
	eng.OnCell = func(ev CellEvent) {
		data, err := os.ReadFile(filepath.Join(dir, resultsFile))
		if err != nil {
			t.Error(err)
			return
		}
		lines = append(lines, bytes.Count(data, []byte("\n")))
	}
	if _, err := eng.RunBatch(cells); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(lines, want) {
		t.Fatalf("records stored at each progress event: %v, want %v", lines, want)
	}
}

// TestProgressCountsDistinctCells pins the progress event's two rules: a
// memo hit (a re-request of a cell resolved earlier) leaves Done where it
// was, and a cell beyond the announced plan raises Total as it arrives,
// so no event reports more cells done than the total. Stats still count
// every resolution, memo hits included.
func TestProgressCountsDistinctCells(t *testing.T) {
	cells := smallCells(3)
	type step struct {
		source      string
		done, total int
	}
	var got []step
	eng := &Engine{Jobs: 1}
	eng.OnCell = func(ev CellEvent) { got = append(got, step{ev.Source, ev.Done, ev.Total}) }
	eng.Expect(2)
	for _, batch := range [][]experiment.Scenario{cells[:2], cells[:2], cells} {
		if _, err := eng.RunBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	want := []step{
		{"run", 1, 2}, {"run", 2, 2}, // the plan
		{"memo", 2, 2}, {"memo", 2, 2}, // a render's re-requests
		{"memo", 2, 2}, {"memo", 2, 2}, {"run", 3, 3}, // one cell beyond the plan
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("progress events %v, want %v", got, want)
	}
	if st := eng.Snapshot(); st != (Stats{Cells: 7, Executed: 3, MemoHits: 4}) {
		t.Fatalf("stats %+v, want 7 cells: 3 executed, 4 memo hits", st)
	}
}

// TestStoreRecoversTruncatedLine: a store whose file ends mid-record (the
// other way a kill can land) reopens cleanly, keeps every complete record,
// and appends from the cut point.
func TestStoreRecoversTruncatedLine(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		{Key: "k1", Kind: KindRemaining, Seed: 1, Remaining: &experiment.RemainingResult{Sums: []float64{1}, Count: 1}},
		{Key: "k2", Kind: KindRemaining, Seed: 2, Remaining: &experiment.RemainingResult{Sums: []float64{2}, Count: 1}},
	}
	for _, r := range recs {
		if err := store.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, resultsFile)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k3","kind":"rem`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 2 {
		t.Fatalf("want 2 recovered records, got %d", reopened.Len())
	}
	third := &Record{Key: "k3", Kind: KindRemaining, Seed: 3, Remaining: &experiment.RemainingResult{Sums: []float64{3}, Count: 1}}
	if err := reopened.Append(third); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(after), string(clean)) {
		t.Fatal("recovery clobbered the clean prefix")
	}
	if strings.Contains(string(after), `"kind":"rem{`) || strings.Count(string(after), "\n") != 3 {
		t.Fatalf("truncated tail not cleanly replaced:\n%s", after)
	}
}

// TestFailedCellReported: a cell that exhausts its event budget runs once,
// surfaces as a campaign error naming the cell, and blocks nothing before
// it in the store.
func TestFailedCellReported(t *testing.T) {
	cells := smallCells(2)
	cells[1].MaxEvents = 1 // guaranteed sim.ErrMaxEvents
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var failed []CellEvent
	eng := &Engine{Store: store, Jobs: 1}
	eng.OnCell = func(ev CellEvent) {
		if ev.Err != nil {
			failed = append(failed, ev)
		}
	}
	_, err = eng.RunBatch(cells)
	if err == nil {
		t.Fatal("want error for exhausted event budget, got nil")
	}
	if !errors.Is(err, sim.ErrMaxEvents) {
		t.Fatalf("error should wrap sim.ErrMaxEvents, got %v", err)
	}
	if !strings.Contains(err.Error(), cells[1].Hash()[:12]) {
		t.Fatalf("error should name the failed cell's key, got %v", err)
	}
	if len(failed) != 1 || failed[0].Key != cells[1].Hash() {
		t.Fatalf("want one failure event for the budgeted cell, got %+v", failed)
	}
	if st := eng.Snapshot(); st.Executed != 1 || st.Failed != 1 {
		t.Fatalf("want the healthy cell executed and the budgeted one failed once, got %+v", st)
	}
	// The healthy cell before the failure still made it to the store.
	if store.Len() != 1 {
		t.Fatalf("want the 1 healthy preceding cell stored, got %d", store.Len())
	}
}

// TestEngineMaxEventsStamped: the engine-level budget is part of cell
// identity (stamped before keying), so it both aborts runaway cells and
// keeps keys stable between plan and execution.
func TestEngineMaxEventsStamped(t *testing.T) {
	cells := smallCells(1)
	eng := &Engine{MaxEvents: 1}
	if _, err := eng.RunBatch(cells); !errors.Is(err, sim.ErrMaxEvents) {
		t.Fatalf("engine MaxEvents should bound the run, got %v", err)
	}
	// A cell's own budget wins over the engine default.
	cells[0].MaxEvents = 1 << 40
	if _, err := eng.RunBatch(cells); err != nil {
		t.Fatalf("cell-level budget should override engine default: %v", err)
	}
}
