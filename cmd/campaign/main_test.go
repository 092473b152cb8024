// cmd/campaign tests, in three tiers: direct subcommand round trips
// (run/status/export and serve with in-process workers), a serve+work
// round trip over real HTTP inside one process, and exec-based e2e — real
// worker child processes against an in-process campaign server, one of them
// SIGKILLed mid-lease, with the final store checked byte-for-byte against a
// single-process run and the figure digests against the golden corpus.
//
// The test binary doubles as the campaign binary: when CAMPAIGN_E2E_ARGS is
// set, TestMain routes straight into dispatch() — the standard
// helper-process pattern, no separate build step.

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"alertmanet/internal/analysis"
	"alertmanet/internal/campaign"
	"alertmanet/internal/campaign/server"
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
		t.Fatal("status without -dir or -server must error")
	}
	if err := dispatch("export", nil); err == nil {
		t.Fatal("export without -dir or -server must error")
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
// before anything runs or is stored, naming the flag; serve needs -dir.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name, cmd string
		args      []string
		flag      string
	}{
		{"run-seeds-0", "run", []string{"-seeds", "0"}, "-seeds"},
		{"run-seeds-negative", "run", []string{"-seeds", "-3"}, "-seeds"},
		{"run-format-xml", "run", []string{"-format", "xml"}, "-format"},
		{"serve-seeds-0", "serve", []string{"-seeds", "0"}, "-seeds"},
		{"serve-format-xml", "serve", []string{"-format", "xml"}, "-format"},
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
	if err := dispatch("serve", []string{"-quiet", "table1"}); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Fatalf("serve without -dir: err = %v", err)
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

// TestServeLocalWorkers: `serve -local-workers 2` completes a campaign with
// no remote workers at all, byte-identical to plain `run`.
func TestServeLocalWorkers(t *testing.T) {
	ref := cmdReference(t)
	dir := t.TempDir()
	err := dispatch("serve", []string{
		"-dir", dir, "-seeds", "1", "-quiet", "-local-workers", "2",
		"-o", filepath.Join(dir, "figs"), "fig12",
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if got := readResults(t, dir); !bytes.Equal(got, ref) {
		t.Fatal("serve with local workers differs from single-process run")
	}
}

// TestServeWorkRoundTrip: `serve` and two `work` subcommands in one process,
// talking over real HTTP via the serveReady hook.
func TestServeWorkRoundTrip(t *testing.T) {
	ref := cmdReference(t)
	dir := t.TempDir()
	addrCh := make(chan string, 1)
	serveReady = func(addr string) { addrCh <- addr }
	defer func() { serveReady = nil }()

	serveDone := make(chan error, 1)
	go func() {
		serveDone <- dispatch("serve", []string{"-dir", dir, "-seeds", "1", "-quiet",
			"-o", filepath.Join(dir, "figs"), "fig12"})
	}()
	addr := <-addrCh
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for i := range werrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = dispatch("work", []string{
				"-server", "http://" + addr, "-name", fmt.Sprintf("w%d", i+1), "-quiet",
			})
		}(i)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	for i, werr := range werrs {
		if werr != nil {
			t.Fatalf("work %d: %v", i+1, werr)
		}
	}
	if got := readResults(t, dir); !bytes.Equal(got, ref) {
		t.Fatal("serve+work differs from single-process run")
	}
}

// --- exec-based e2e ---

const goldenPath = "../../internal/experiment/testdata/figures_golden.json"

func seriesDigest(series []analysis.Series) string {
	h := sha256.New()
	for _, s := range series {
		fmt.Fprintf(h, "%s|%v|%v|%v\n", s.Label, s.X, s.Y, s.Err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// e2eDrive renders the golden-pinned figure subset through a runner.
func e2eDrive(r experiment.Runner) (map[string]string, error) {
	d := map[string]string{}
	s, err := experiment.Fig11(r, 3, 2)
	if err != nil {
		return nil, fmt.Errorf("fig11: %w", err)
	}
	d["fig11"] = seriesDigest([]analysis.Series{s})
	many, err := experiment.Fig12(r, []float64{0, 5, 10}, 2)
	if err != nil {
		return nil, fmt.Errorf("fig12: %w", err)
	}
	d["fig12"] = seriesDigest(many)
	many, err = experiment.EnergySummary(r, 2)
	if err != nil {
		return nil, fmt.Errorf("energy: %w", err)
	}
	d["energy"] = seriesDigest(many)
	return d, nil
}

// TestExecE2EWorkerSIGKILL: a real worker child process is SIGKILLed while
// holding leases; the lease expires on the wall clock, a second child
// process reclaims and finishes, and the final store is byte-identical to a
// single-process run with digests matching the blessed golden corpus.
func TestExecE2EWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and drives the figure subset twice")
	}

	// Single-process reference for this figure subset.
	refDir := t.TempDir()
	refStore, err := campaign.OpenStore(refDir)
	if err != nil {
		t.Fatal(err)
	}
	refDigests, err := e2eDrive(&campaign.Engine{Store: refStore, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := refStore.Close(); err != nil {
		t.Fatal(err)
	}
	ref := readResults(t, refDir)

	// The distributed campaign under test.
	dir := t.TempDir()
	store, err := campaign.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := &server.Queue{Lease: 500 * time.Millisecond}

	// The victim dies by SIGKILL inside its first claim — before the HTTP
	// response reaches it — so its leased cells are guaranteed to go
	// unexecuted until the lease expires. The kill hook is wired before the
	// HTTP server exists, so no handler ever races the assignment.
	var victim *exec.Cmd
	victimKilled := make(chan struct{})
	var killOnce sync.Once
	q.OnEvent = func(ev server.Event) {
		if ev.Kind == server.EventClaim && ev.Worker == "victim" {
			killOnce.Do(func() {
				if err := victim.Process.Kill(); err != nil {
					t.Errorf("kill victim: %v", err)
				}
				close(victimKilled)
			})
		}
	}
	ts := httptest.NewServer((&server.Server{Queue: q, Store: store, Name: "e2e"}).Handler())
	victim = helperCommand(t, "work", "-server", ts.URL, "-name", "victim", "-batch", "3", "-quiet")

	driverDone := make(chan error, 1)
	digestCh := make(chan map[string]string, 1)
	go func() {
		eng := &campaign.Engine{Store: store, Exec: q}
		d, err := e2eDrive(eng)
		digestCh <- d
		q.Finish()
		driverDone <- err
	}()

	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-victimKilled:
	case <-time.After(30 * time.Second):
		t.Fatal("victim never claimed cells")
	}
	if err := victim.Wait(); err == nil {
		t.Fatal("SIGKILLed victim reported clean exit")
	}

	survivor := helperCommand(t, "work", "-server", ts.URL, "-name", "survivor", "-jobs", "2", "-quiet")
	survivor.Stderr = os.Stderr
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}
	if derr := <-driverDone; derr != nil {
		t.Fatalf("driver: %v", derr)
	}
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor: %v", err)
	}

	// The status and export subcommands against the live server.
	if err := dispatch("status", []string{"-server", ts.URL}); err != nil {
		t.Fatalf("status -server: %v", err)
	}
	exportPath := filepath.Join(t.TempDir(), "export.jsonl")
	if err := dispatch("export", []string{"-server", ts.URL, "-o", exportPath}); err != nil {
		t.Fatalf("export -server: %v", err)
	}
	exported, err := os.ReadFile(exportPath)
	if err != nil {
		t.Fatal(err)
	}

	stats, pending, leased, _ := q.Snapshot()
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	if stats.Expired == 0 {
		t.Fatalf("the victim's leases never expired: %+v", stats)
	}
	if pending != 0 || leased != 0 {
		t.Fatalf("queue not drained: pending=%d leased=%d", pending, leased)
	}
	got := readResults(t, dir)
	if !bytes.Equal(got, ref) {
		t.Fatalf("distributed store differs from single-process run (%d vs %d bytes)", len(got), len(ref))
	}
	if !bytes.Equal(exported, ref) {
		t.Fatal("export -server is not byte-identical to the reference store")
	}

	// And the figures those bytes produce are the paper's: golden digests.
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	digests := <-digestCh
	for name, want := range map[string]string{
		"fig11": golden["fig11"], "fig12": golden["fig12"], "energy": golden["energy"],
	} {
		if digests[name] != want {
			t.Errorf("digest %s: distributed %s, golden %s", name, digests[name], want)
		}
		if refDigests[name] != want {
			t.Errorf("digest %s: reference %s, golden %s", name, refDigests[name], want)
		}
	}
}

// TestExecE2EServeSIGINT: a real `serve -local-workers 1` child process is
// interrupted mid-campaign; whatever prefix it stored, a plain `run` resume
// completes it to bytes identical to a never-interrupted run.
func TestExecE2EServeSIGINT(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server process and drives the figure subset")
	}
	ref := cmdReference(t)

	dir := t.TempDir()
	addrFile := filepath.Join(t.TempDir(), "addr")
	serve := helperCommand(t, "serve",
		"-dir", dir, "-seeds", "1", "-quiet", "-local-workers", "1",
		"-addr-file", addrFile, "-o", filepath.Join(dir, "figs"), "fig12")
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}

	// Watch for the first stored record, then interrupt. The fig12 grid is
	// tiny, so the child may finish the whole campaign before the signal
	// lands — exit code 0 (completed) and 1 (interrupted) are both
	// legitimate, and the prefix + resume assertions below hold either way.
	exited := make(chan error, 1)
	go func() { exited <- serve.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	running := true
	for running && time.Now().Before(deadline) {
		select {
		case err := <-exited:
			running = false
			if err != nil {
				t.Fatalf("serve exited uninterrupted with: %v", err)
			}
		default:
			addrData, err := os.ReadFile(addrFile)
			if err != nil {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			addr := "http://" + string(bytes.TrimSpace(addrData))
			resp, herr := http.Get(addr + server.PathStatus)
			if herr == nil {
				var st server.StatusResponse
				jerr := json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if jerr == nil && st.Stored > 0 {
					// Racing a just-finished child is fine: the signal then
					// errors harmlessly and the wait below sees exit 0.
					serve.Process.Signal(os.Interrupt)
					if werr := <-exited; werr != nil {
						var exitErr *exec.ExitError
						if !errors.As(werr, &exitErr) || exitErr.ExitCode() != 1 {
							t.Fatalf("interrupted serve exit: %v", werr)
						}
					}
					running = false
				}
			}
			if running {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	if running {
		t.Fatal("serve neither stored a record nor exited within 30s")
	}

	partial := readResults(t, dir)
	if !bytes.HasPrefix(ref, partial) {
		t.Fatal("interrupted serve left bytes that are not a prefix of the reference run")
	}
	// Resume single-process: the distributed prefix and the local suffix
	// must fuse into the byte-identical whole.
	if err := dispatch("run", []string{"-dir", dir, "-seeds", "1", "-quiet",
		"-o", filepath.Join(dir, "figs"), "fig12"}); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if got := readResults(t, dir); !bytes.Equal(got, ref) {
		t.Fatal("resume after interrupted serve is not byte-identical")
	}
}
