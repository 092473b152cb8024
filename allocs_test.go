// The allocation and CPU-time gate over the serial workloads every output
// of the evaluation is made of: the paper default per protocol, the same
// ALERT run with telemetry streamed, and one campaign cell through the
// engine. Each workload's heap allocations per run are pinned in
// testdata/allocs_golden.json, and its CPU time must stay under a coarse
// multiple of a reference.
//
// Allocation counts repeat only with the garbage collector off: a
// collection empties the sync.Pools the hot paths recycle frames through,
// and with the collector on identical processes drift by a few
// allocations. So each count is taken with the collector off, from a
// freshly collected heap, after a warm-up run that fills the pools, and
// the gate takes the median of several counts: a single run now and then
// still reads one or two allocations off, since how a large map grows
// depends on its random hash seed. A workload whose median still moves
// carries an absolute bound ("slack") in the golden file; every other
// count is pinned exactly, in both directions. The counts belong to the
// toolchain release that blessed them, which the golden file names; under
// any other release the test skips. After an intended change, re-bless
// (each workload keeps its slack):
//
//	go test . -run TestAllocsAndCPU -update
//
// The CPU references are constants here, not golden values: -update does
// not move them. CPU time, not wall time, because `go test ./...` runs
// packages in parallel and wall time then measures the neighbours.

package alert

import (
	"cmp"
	"encoding/json"
	"flag"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"time"

	"alertmanet/internal/campaign"
	"alertmanet/internal/experiment"
	"alertmanet/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/allocs_golden.json from current behaviour")

// raceEnabled is set under the race detector, which makes sync.Pool drop
// items at random: allocation counts are then meaningless.
var raceEnabled bool

const allocsGoldenPath = "testdata/allocs_golden.json"

const (
	// allocSamples is how many counts the allocation gate takes the
	// median of.
	allocSamples = 5
	// cpuRuns is how many runs the CPU guard takes the median of.
	cpuRuns = 5
	// cpuFactor is how far over its reference a workload's median CPU time
	// may go: the guard catches an order-of-magnitude slowdown, not noise.
	cpuFactor = 5
)

// allocsGolden is testdata/allocs_golden.json: the toolchain release the
// counts were taken under and each workload's count.
type allocsGolden struct {
	Go        string                 `json:"go"`
	Workloads map[string]allocsEntry `json:"workloads"`
}

// allocsEntry is one workload's pinned count. Slack 0 pins it exactly.
type allocsEntry struct {
	Allocs int64 `json:"allocs"`
	Slack  int64 `json:"slack,omitempty"`
}

// gateWorkload is one serial workload of the gate. cpuRef is a little under
// the fastest median CPU time per run (user + system) measured on a 2-vCPU
// x86-64 Linux host under go1.24.0, so that a 5× slowdown exceeds
// cpuFactor·cpuRef there while the slowest median seen stays under half of it.
type gateWorkload struct {
	name   string
	cpuRef time.Duration
	run    func() error
}

func gateWorkloads() []gateWorkload {
	paper := func(p experiment.ProtocolName) func() error {
		return func() error {
			sc := experiment.DefaultScenario()
			sc.Protocol = p
			_, err := experiment.Run(sc)
			return err
		}
	}
	cell := experiment.DefaultScenario()
	cell.N = 100
	cell.Duration = 20
	return []gateWorkload{
		{"alert", 40 * time.Millisecond, paper(experiment.ALERT)},
		{"gpsr", 13 * time.Millisecond, paper(experiment.GPSR)},
		{"alarm", 13 * time.Millisecond, paper(experiment.ALARM)},
		{"ao2p", 13 * time.Millisecond, paper(experiment.AO2P)},
		{"zap", 32 * time.Millisecond, paper(experiment.ZAP)},
		{"alert-telemetry", 80 * time.Millisecond, func() error {
			tap := telemetry.New(io.Discard, telemetry.LayerAll)
			_, _, err := experiment.RunWorld(experiment.DefaultScenario(), tap)
			return err
		}},
		{"campaign-cell", 6500 * time.Microsecond, func() error {
			_, err := (&campaign.Engine{Jobs: 1}).RunBatch([]experiment.Scenario{cell})
			return err
		}},
	}
}

// TestAllocsAndCPU holds each gate workload to its pinned allocation count
// and its median CPU time under cpuFactor times its reference.
func TestAllocsAndCPU(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	var golden allocsGolden
	data, err := os.ReadFile(allocsGoldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parse %s: %v", allocsGoldenPath, err)
		}
	case !*update:
		t.Fatalf("read %s (run with -update to create): %v", allocsGoldenPath, err)
	}
	if !*update && golden.Go != runtime.Version() {
		t.Skipf("%s holds %s's counts; this is %s", allocsGoldenPath, golden.Go, runtime.Version())
	}

	got := allocsGolden{Go: runtime.Version(), Workloads: map[string]allocsEntry{}}
	for _, w := range gateWorkloads() {
		allocs := countAllocs(t, w)
		cpu := medianCPU(t, w)
		t.Logf("%-16s %6d allocs/run, median CPU %v (guard %v)", w.name, allocs, cpu, cpuFactor*w.cpuRef)
		if cpu >= cpuFactor*w.cpuRef {
			t.Errorf("%s: median CPU %v per run is over %d× its %v reference", w.name, cpu, cpuFactor, w.cpuRef)
		}
		want, ok := golden.Workloads[w.name]
		got.Workloads[w.name] = allocsEntry{Allocs: allocs, Slack: want.Slack}
		switch {
		case *update:
		case !ok:
			t.Errorf("%s: missing from %s; re-bless with -update", w.name, allocsGoldenPath)
		case allocs < want.Allocs-want.Slack || allocs > want.Allocs+want.Slack:
			t.Errorf("%s: %d allocs/run, golden %d ± %d; re-bless with -update if intended",
				w.name, allocs, want.Allocs, want.Slack)
		}
	}
	if !*update {
		return
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(allocsGoldenPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", allocsGoldenPath)
}

// countAllocs returns one workload's heap allocations per run: the median of
// allocSamples counts, each by testing.AllocsPerRun (a warm-up run, then one
// measured run) from a freshly collected heap with the collector off.
func countAllocs(t *testing.T, w gateWorkload) int64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var err error
	run := func() {
		if e := w.run(); e != nil {
			err = e
		}
	}
	samples := make([]int64, allocSamples)
	for i := range samples {
		runtime.GC()
		samples[i] = int64(testing.AllocsPerRun(1, run))
	}
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return median(samples)
}

// medianCPU returns the median process CPU time of cpuRuns runs of one
// workload; the allocation counts just before are its warm-up.
func medianCPU(t *testing.T, w gateWorkload) time.Duration {
	t.Helper()
	runtime.GC()
	samples := make([]time.Duration, cpuRuns)
	for i := range samples {
		c0 := cpuTime()
		if err := w.run(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		samples[i] = cpuTime() - c0
	}
	return median(samples)
}

// median sorts s in place and returns its middle element.
func median[T cmp.Ordered](s []T) T {
	slices.Sort(s)
	return s[len(s)/2]
}

// cpuTime is the process's CPU time so far, user plus system, across all
// its threads. Getrusage on RUSAGE_SELF with a valid buffer cannot fail.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
