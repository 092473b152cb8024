// cmd/campaign tests, in two tiers: direct subcommand round trips
// (run/status/export), and exec-based e2e — a real `run` child process
// interrupted or SIGKILLed mid-campaign, its store checked to be a prefix of
// an uninterrupted run's and a resume checked to complete it byte-for-byte.
//
// The test binary doubles as the campaign binary: when CAMPAIGN_E2E_ARGS is
// set, TestMain routes straight into dispatch() — the standard
// helper-process pattern, no separate build step.

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"alertmanet/internal/experiment"
)

func TestMain(m *testing.M) {
	if raw := os.Getenv("CAMPAIGN_E2E_ARGS"); raw != "" {
		var args []string
		if err := json.Unmarshal([]byte(raw), &args); err != nil || len(args) == 0 {
			fmt.Fprintln(os.Stderr, "campaign helper: bad CAMPAIGN_E2E_ARGS:", err)
			os.Exit(2)
		}
		if err := dispatch(args[0], args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// helperCommand runs this test binary as the campaign CLI.
func helperCommand(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CAMPAIGN_E2E_ARGS="+string(enc))
	return cmd
}

func readResults(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cmdReference is the byte-exact single-process `run` store for the cheap
// fig12 grid every subcommand test compares against, computed once, and
// cmdRefFig12 the figure that run rendered.
var (
	cmdRefOnce  sync.Once
	cmdRefBytes []byte
	cmdRefFig12 []byte
	cmdRefErr   error
)

func cmdReference(t *testing.T) []byte {
	t.Helper()
	cmdRefOnce.Do(func() {
		dir, err := os.MkdirTemp("", "campaign-cmd-ref")
		if err != nil {
			cmdRefErr = err
			return
		}
		defer os.RemoveAll(dir)
		if err := dispatch("run", []string{"-dir", dir, "-seeds", "1", "-quiet",
			"-o", filepath.Join(dir, "figs"), "fig12"}); err != nil {
			cmdRefErr = err
			return
		}
		if cmdRefFig12, cmdRefErr = os.ReadFile(filepath.Join(dir, "figs", "fig12.txt")); cmdRefErr != nil {
			return
		}
		cmdRefBytes, cmdRefErr = os.ReadFile(filepath.Join(dir, "results.jsonl"))
	})
	if cmdRefErr != nil {
		t.Fatalf("reference run: %v", cmdRefErr)
	}
	return cmdRefBytes
}

func TestDispatchUnknown(t *testing.T) {
	if err := dispatch("frobnicate", nil); err == nil {
		t.Fatal("unknown subcommand must error")
	}
}

func TestRunStatusExport(t *testing.T) {
	ref := cmdReference(t)
	dir := t.TempDir()
	if err := dispatch("run", []string{"-dir", dir, "-seeds", "1", "-quiet",
		"-o", filepath.Join(dir, "figs"), "fig12"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := readResults(t, dir); !bytes.Equal(got, ref) {
		t.Fatal("identical run args produced different store bytes")
	}
	if err := dispatch("status", []string{"-dir", dir}); err != nil {
		t.Fatalf("status: %v", err)
	}
	out := filepath.Join(t.TempDir(), "export.jsonl")
	if err := dispatch("export", []string{"-dir", dir, "-o", out}); err != nil {
		t.Fatalf("export: %v", err)
	}
	exported, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported, ref) {
		t.Fatal("export is not byte-identical to results.jsonl")
	}
	if err := dispatch("status", nil); err == nil {
		t.Fatal("status without -dir must error")
	}
	if err := dispatch("export", nil); err == nil {
		t.Fatal("export without -dir must error")
	}
}

// TestExportKeepsOutputOnBadDir: an export that fails on its -dir leaves
// an existing -o file byte for byte as it was.
func TestExportKeepsOutputOnBadDir(t *testing.T) {
	tmp := t.TempDir()
	out := filepath.Join(tmp, "keep.jsonl")
	want := []byte("{\"k\":1}\n")
	if err := os.WriteFile(out, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"missing-dir", []string{"-o", out}},
		{"nonexistent-dir", []string{"-dir", filepath.Join(tmp, "nope"), "-o", out}},
	} {
		if err := dispatch("export", tc.args); err == nil {
			t.Errorf("%s: export succeeded", tc.name)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: -o file now reads %q (err %v), want %q", tc.name, got, err, want)
		}
	}
}

// TestRunInMemory: `run` without -dir renders the same figure bytes as a
// stored run, and renders text entries and markdown too.
func TestRunInMemory(t *testing.T) {
	cmdReference(t)
	out := t.TempDir()
	if err := dispatch("run", []string{"-seeds", "1", "-quiet", "-o", out, "fig12", "table1"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(out, "fig12.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cmdRefFig12) {
		t.Fatal("in-memory fig12 differs from the stored run's")
	}
	table, err := os.ReadFile(filepath.Join(out, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(table, []byte("== Table 1")) || !bytes.Contains(table, []byte("ANODR")) {
		t.Fatalf("table1.txt:\n%s", table)
	}

	md := t.TempDir()
	if err := dispatch("run", []string{"-seeds", "1", "-quiet", "-format", "md", "-o", md, "fig7a", "table1"}); err != nil {
		t.Fatalf("run -format md: %v", err)
	}
	for name, want := range map[string]string{
		"fig7a.md":  "## Fig. 7a (analysis): possible participating nodes vs partitions\n\n| x | N=100 |",
		"table1.md": "## Table 1: anonymous routing protocol taxonomy\n\n```\nCategory",
	} {
		got, err := os.ReadFile(filepath.Join(md, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(got), want) {
			t.Errorf("%s starts %q, want %q", name, got[:min(len(got), len(want))], want)
		}
	}
}

// checkMarkdown runs `run -seeds 1 -format md -o DIR` in memory over the
// outputs that want names, and checks that exactly those files are written
// and that each contains every string want lists for it.
func checkMarkdown(t *testing.T, want map[string][]string) {
	t.Helper()
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	out := t.TempDir()
	if err := dispatch("run", append([]string{"-seeds", "1", "-quiet", "-format", "md", "-o", out}, names...)); err != nil {
		t.Fatalf("run -format md: %v", err)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("wrote %d files, want %d", len(entries), len(want))
	}
	for name, subs := range want {
		got, err := os.ReadFile(filepath.Join(out, name+".md"))
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			if !strings.Contains(string(got), sub) {
				t.Errorf("%s.md lacks %q:\n%s", name, sub, got)
			}
		}
	}
}

// TestRunMarkdownAnalytical: the Section 4 closed forms render as markdown
// tables, and naming them renders nothing else.
func TestRunMarkdownAnalytical(t *testing.T) {
	checkMarkdown(t, map[string][]string{
		"fig7a": {"## Fig. 7a", "| x | N=100 | N=200 | N=400 |"},
		"fig7b": {"## Fig. 7b", "| x | E[RFs] |"},
		"fig9a": {"## Fig. 9a", "| x | N=100 | N=200 | N=400 |"},
		"fig9b": {"## Fig. 9b", "| x | v=1 m/s | v=2 m/s | v=4 m/s |"},
	})
}

// TestRunMarkdownAttacksAndEnergy: the Section 3 attacks, energy and
// Table 1 render as markdown, Table 1 in a fenced block.
func TestRunMarkdownAttacksAndEnergy(t *testing.T) {
	checkMarkdown(t, map[string][]string{
		"intersection": {"## Section 3.3: intersection attack", "| broadcast: D still a candidate |"},
		"source":       {"## Section 2.6", "| transmitters seen, notify-and-go |"},
		"timing":       {"## Section 3.2: timing attack", "| x | gpsr | alert |"},
		"interception": {"## Section 3.1: share of session packets captured", "| x | gpsr | alert |"},
		"dos":          {"## Section 3.1: delivery before and after", "| alert under attack |"},
		"energy":       {"## Energy per delivered packet", "| x | alert | gpsr | alarm | ao2p |"},
		"table1":       {"## Table 1", "```\nCategory", "ANODR"},
	})
}

// TestRunMarkdownFigures: every Section 5 simulation figure runs at one
// seed and renders as a markdown table.
func TestRunMarkdownFigures(t *testing.T) {
	want := map[string][]string{}
	for _, f := range experiment.Figures() {
		if strings.HasPrefix(f.Name, "fig") && f.Plan != nil {
			want[f.Name] = []string{"## " + f.Title + "\n\n| x |"}
		}
	}
	if len(want) != 13 {
		t.Fatalf("%d simulation figures in the registry, want fig10a through fig17 (13)", len(want))
	}
	checkMarkdown(t, want)
}

// TestRejectsBadFlags: a seed count below 1 or an unknown format fails
// before anything runs or is stored, naming the flag.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name, cmd string
		args      []string
		flag      string
	}{
		{"run-seeds-0", "run", []string{"-seeds", "0"}, "-seeds"},
		{"run-seeds-negative", "run", []string{"-seeds", "-3"}, "-seeds"},
		{"run-format-xml", "run", []string{"-format", "xml"}, "-format"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "campaign")
			args := append([]string{"-dir", dir, "-quiet"}, tc.args...)
			err := dispatch(tc.cmd, append(args, "fig11", "energy"))
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("err = %v, want one naming %s", err, tc.flag)
			}
			if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
				t.Fatalf("rejected %s still created the campaign directory", tc.cmd)
			}
		})
	}
}

// TestRunWriteErrorFails: a failed write of a rendered output, on stdout or
// to an -o file, fails the command.
func TestRunWriteErrorFails(t *testing.T) {
	closed, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	stdout := os.Stdout
	os.Stdout = closed
	err = dispatch("run", []string{"-seeds", "1", "-quiet", "table1"})
	os.Stdout = stdout
	if err == nil {
		t.Fatal("write error on stdout swallowed")
	}

	out := t.TempDir()
	// A directory where the output file should go makes the write fail.
	if err := os.Mkdir(filepath.Join(out, "table1.txt"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := dispatch("run", []string{"-seeds", "1", "-quiet", "-o", out, "table1"}); err == nil {
		t.Fatal("write error on an -o file swallowed")
	}
}

// --- exec-based e2e ---

// killArgs is the campaign the kill tests interrupt: fig11 at one seed is 7
// cells (~0.5 s on one worker), so a signal sent once the first record is
// stored lands mid-campaign.
func killArgs(dir string) []string {
	return []string{"-dir", dir, "-seeds", "1", "-jobs", "1", "-quiet",
		"-o", filepath.Join(dir, "figs"), "fig11"}
}

// killReference is the byte-exact store of an uninterrupted killArgs run,
// computed once.
var (
	killRefOnce  sync.Once
	killRefBytes []byte
	killRefErr   error
)

func killReference(t *testing.T) []byte {
	t.Helper()
	killRefOnce.Do(func() {
		dir, err := os.MkdirTemp("", "campaign-kill-ref")
		if err != nil {
			killRefErr = err
			return
		}
		defer os.RemoveAll(dir)
		if killRefErr = dispatch("run", killArgs(dir)); killRefErr != nil {
			return
		}
		killRefBytes, killRefErr = os.ReadFile(filepath.Join(dir, "results.jsonl"))
	})
	if killRefErr != nil {
		t.Fatalf("reference run: %v", killRefErr)
	}
	return killRefBytes
}

// killRun starts a real `run` child over killArgs, sends it sig as soon as
// its store holds a record, and checks the three halves of the kill
// contract: the child was interrupted (its store is strictly shorter than
// the reference), what it stored is a prefix of the reference, and a
// resumed run completes it byte-identically. It returns the child's exit
// error.
func killRun(t *testing.T, sig os.Signal) error {
	t.Helper()
	ref := killReference(t)
	dir := t.TempDir()
	child := helperCommand(t, append([]string{"run"}, killArgs(dir)...)...)
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- child.Wait() }()

	results := filepath.Join(dir, "results.jsonl")
	deadline := time.After(30 * time.Second)
	for {
		select {
		case err := <-exited:
			t.Fatalf("run exited (%v) before it stored a record", err)
		case <-deadline:
			child.Process.Kill()
			<-exited
			t.Fatal("run stored no record within 30s")
		case <-time.After(time.Millisecond):
		}
		if fi, err := os.Stat(results); err == nil && fi.Size() > 0 {
			break
		}
	}
	if err := child.Process.Signal(sig); err != nil {
		t.Fatalf("signal run: %v", err)
	}
	werr := <-exited

	partial := readResults(t, dir)
	if len(partial) >= len(ref) {
		t.Fatalf("run got %q too late: it stored %d of the reference's %d bytes", sig, len(partial), len(ref))
	}
	if !bytes.HasPrefix(ref, partial) {
		t.Fatalf("run got %q and left a store that is not a prefix of the reference run", sig)
	}
	if err := dispatch("run", killArgs(dir)); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if got := readResults(t, dir); !bytes.Equal(got, ref) {
		t.Fatalf("resume after %q is not byte-identical to an uninterrupted run", sig)
	}
	return werr
}

// TestExecE2ERunSIGINT: an interrupted `run` finishes its in-flight cell,
// keeps the stored prefix, and exits 1; resuming completes the store.
func TestExecE2ERunSIGINT(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a campaign process")
	}
	werr := killRun(t, os.Interrupt)
	var exitErr *exec.ExitError
	if !errors.As(werr, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("interrupted run exit: %v, want exit status 1", werr)
	}
}

// TestExecE2ERunSIGKILL: a SIGKILLed `run` gets no chance to clean up, and
// its store is still a prefix that a resume completes byte-identically.
func TestExecE2ERunSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a campaign process")
	}
	werr := killRun(t, syscall.SIGKILL)
	var exitErr *exec.ExitError
	if !errors.As(werr, &exitErr) || exitErr.ExitCode() != -1 {
		t.Fatalf("killed run exit: %v, want death by signal", werr)
	}
}
