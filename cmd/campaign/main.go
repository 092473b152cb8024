// Command campaign runs and renders the paper's evaluation as one
// declarative sweep: it expands the selected outputs into their full cell
// grids, executes them across a worker pool, and streams every result to an
// append-only store keyed by cell content hash. Killing a run loses nothing
// — `resume` (or simply re-running) re-executes only the missing cells — and
// a shared -cache-dir makes cells free across campaign directories too.
// Without -dir, `run` resolves cells in memory and writes no store.
//
//	campaign run -dir out/figures-campaign -seeds 5 all
//	campaign resume -dir out/figures-campaign
//	campaign status -dir out/figures-campaign
//	campaign export -dir out/figures-campaign > results.jsonl
//	campaign run -seeds 2 fig14a table1 intersection
//	campaign run -seeds 30 -format md all > report.md
//
// The same sweep distributes across processes — and machines — without
// changing its output byte: `serve` drives the campaign while leasing
// unresolved cells over HTTP, and any number of `work` processes claim,
// execute, and submit them. Cells are content-addressed and simulations
// deterministic, so the distributed results.jsonl is byte-identical to a
// single-process run's.
//
//	campaign serve -dir out/figures-campaign -addr :7077 -seeds 5 all
//	campaign work  -server http://host:7077        # on each worker machine
//	campaign status -server http://host:7077
//
// Output names are the registry's (experiment.Figures): the closed forms
// fig7a fig7b fig9a fig9b overhead, the simulations fig10a ... fig17 energy
// compare, table1, and the attacks intersection source timing interception
// dos; `all` (default) selects every one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"alertmanet/internal/campaign"
	"alertmanet/internal/campaign/server"
	"alertmanet/internal/experiment"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if err := dispatch(os.Args[1], os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

// dispatch routes one subcommand; tests call it directly.
func dispatch(cmd string, args []string) error {
	switch cmd {
	case "run", "resume":
		// resume is run: the store already holds the finished prefix, so a
		// re-run executes only what is missing.
		return cmdRun(args)
	case "serve":
		return cmdServe(args)
	case "work":
		return cmdWork(args)
	case "status":
		return cmdStatus(args)
	case "export":
		return cmdExport(args)
	case "-h", "-help", "--help", "help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", cmd)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  campaign run    [-dir <campaign-dir>] [flags] [outputs...] execute (or continue) a campaign; in memory without -dir
  campaign resume [-dir <campaign-dir>] [flags] [outputs...] alias of run
  campaign serve  -dir <campaign-dir> [flags] [outputs...]   drive a campaign, leasing cells to workers over HTTP
  campaign work   -server <url> [flags]                      claim and execute cells from a campaign server
  campaign status -dir <campaign-dir> | -server <url>        print progress and provenance
  campaign export -dir <campaign-dir> | -server <url> [-o f] dump the result store as JSONL

run flags:
  -seeds N      independent runs per data point (default 5; paper: 30)
  -jobs N       parallel simulation workers (0 = GOMAXPROCS)
  -retries N    execution attempts per cell (default 2)
  -max-events N per-cell event budget, 0 = unlimited (runaway guard)
  -cache-dir D  content-addressed cell cache shared across campaigns
  -o DIR        render each output to DIR/<name>.{txt,csv,md} instead of stdout
  -format F     rendered output format: text, csv or md
  -quiet        suppress per-cell progress lines

serve flags: the run flags, plus
  -addr A           listen address (default 127.0.0.1:0)
  -addr-file F      write the bound address to F once listening
  -lease D          how long a claimed cell stays assigned before another
                    worker may reclaim it (default 30s)
  -local-workers N  also execute cells in-process alongside remote workers

work flags:
  -server URL   campaign server to claim from
  -name NAME    worker name in server-side leases (default host-pid)
  -jobs N       parallel cell executors (default 1)
  -batch N      cells per claim (default jobs)
  -retries N    execution attempts per cell (default 2)
  -quiet        suppress per-cell progress lines
`)
}

// selectFigures resolves output-name arguments against the registry.
func selectFigures(args []string) ([]experiment.Figure, error) {
	all := experiment.Figures()
	if len(args) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			return all, nil
		}
		if _, ok := experiment.FindFigure(a); !ok {
			return nil, fmt.Errorf("unknown output %q", a)
		}
		want[a] = true
	}
	var out []experiment.Figure
	for _, f := range all {
		if want[f.Name] {
			out = append(out, f)
		}
	}
	return out, nil
}

// engineFlags are the engine-shaping flags run and serve share.
type engineFlags struct {
	dir, cacheDir        *string
	seeds, retries, jobs *int
	maxEvents            *uint64
	outDir, format       *string
	quiet                *bool
}

func addEngineFlags(fs *flag.FlagSet) engineFlags {
	return engineFlags{
		dir:       fs.String("dir", "", "campaign directory (result store + manifest); run without it resolves cells in memory"),
		seeds:     fs.Int("seeds", 5, "independent runs per data point (paper: 30)"),
		jobs:      fs.Int("jobs", 0, "parallel simulation workers (0 = GOMAXPROCS)"),
		retries:   fs.Int("retries", 2, "execution attempts per cell"),
		maxEvents: fs.Uint64("max-events", 0, "per-cell event budget (0 = unlimited)"),
		cacheDir:  fs.String("cache-dir", "", "content-addressed cell cache shared across campaigns"),
		outDir:    fs.String("o", "", "render each output to <dir>/<name>.{txt,csv,md} instead of stdout"),
		format:    fs.String("format", "text", "rendered output format: text, csv or md"),
		quiet:     fs.Bool("quiet", false, "suppress per-cell progress lines"),
	}
}

// buildEngine checks the flags and assembles the engine they describe, with
// the store under -dir when one is given. The caller owns closing a
// returned store.
func (ef engineFlags) buildEngine() (*campaign.Engine, *campaign.Store, error) {
	if *ef.seeds < 1 {
		return nil, nil, fmt.Errorf("-seeds must be at least 1, got %d", *ef.seeds)
	}
	if _, ok := experiment.FormatExt(*ef.format); !ok {
		return nil, nil, fmt.Errorf("unknown -format %q (text, csv or md)", *ef.format)
	}
	eng := &campaign.Engine{
		Name:      "figures",
		Jobs:      *ef.jobs,
		Retries:   *ef.retries,
		MaxEvents: *ef.maxEvents,
	}
	if *ef.cacheDir != "" {
		cache, err := campaign.OpenCache(*ef.cacheDir)
		if err != nil {
			return nil, nil, err
		}
		eng.Cache = cache
	}
	var store *campaign.Store
	if *ef.dir != "" {
		var err error
		if store, err = campaign.OpenStore(*ef.dir); err != nil {
			return nil, nil, err
		}
		eng.Store = store
	}
	if !*ef.quiet {
		eng.OnCell = func(ev campaign.CellEvent) {
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "[%d/%d] FAIL  %s: %v\n", ev.Done, ev.Total, ev.Label, ev.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-5s %s (%.2fs)\n", ev.Done, ev.Total, ev.Source, ev.Label, ev.Seconds)
		}
	}
	return eng, store, nil
}

// driveFigures executes and renders the selected outputs through the engine —
// the campaign's "driver" role, identical whether the engine resolves cells
// in-process (run) or through leased remote workers (serve). Identical is the
// point: the store's byte layout depends only on this drive order.
func driveFigures(eng *campaign.Engine, store *campaign.Store, figures []experiment.Figure, ef engineFlags) error {
	// Announce the planned size: the union of every selected figure's cell
	// grid, deduplicated by content key (adaptive figures plan zero cells
	// and add theirs at render time).
	distinct := map[string]bool{}
	plans := make([]experiment.FigurePlan, len(figures))
	for i, f := range figures {
		if f.Plan == nil {
			continue
		}
		plans[i] = f.Plan(*ef.seeds)
		for _, sc := range plans[i].Runs {
			if eng.MaxEvents != 0 && sc.MaxEvents == 0 {
				sc.MaxEvents = eng.MaxEvents
			}
			distinct[sc.Hash()] = true
		}
		for _, spec := range plans[i].Remaining {
			distinct[spec.Hash()] = true
		}
	}
	eng.Expect(len(distinct))
	stored := "in memory"
	if store != nil {
		stored = fmt.Sprintf("%d already stored", store.Len())
	}
	fmt.Fprintf(os.Stderr, "campaign: %d planned cells across %d outputs (%s)\n",
		len(distinct), len(figures), stored)

	ext, _ := experiment.FormatExt(*ef.format)
	if *ef.outDir != "" {
		if err := os.MkdirAll(*ef.outDir, 0o755); err != nil {
			return err
		}
	}
	for i, f := range figures {
		// Execute the entry's planned grid, then render through the same
		// engine — the render's cell requests all memo-hit.
		plan := plans[i]
		if len(plan.Runs) > 0 {
			if _, err := eng.RunBatch(plan.Runs); err != nil {
				return fmt.Errorf("%s: %w", f.Name, err)
			}
		}
		if len(plan.Remaining) > 0 {
			if _, err := eng.RemainingBatch(plan.Remaining); err != nil {
				return fmt.Errorf("%s: %w", f.Name, err)
			}
		}
		out, err := f.Output(*ef.format, eng, *ef.seeds)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		if *ef.outDir == "" {
			_, err = os.Stdout.Write(append(out, '\n'))
		} else {
			path := filepath.Join(*ef.outDir, f.Name+ext)
			if err = os.WriteFile(path, out, 0o644); err == nil {
				_, err = fmt.Println("wrote", path)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	st := eng.Snapshot()
	fmt.Fprintf(os.Stderr, "campaign: %d cells resolved — %d executed, %d store, %d cache, %d memo, %d failed\n",
		st.Cells, st.Executed, st.StoreHits, st.CacheHits, st.MemoHits, st.Failed)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	ef := addEngineFlags(fs)
	fs.Parse(args)
	figures, err := selectFigures(fs.Args())
	if err != nil {
		return err
	}
	eng, store, err := ef.buildEngine()
	if err != nil {
		return err
	}
	if store != nil {
		defer store.Close()
	}

	// A killed run (SIGINT/SIGTERM) stops scheduling, finishes in-flight
	// cells, stores the completed prefix, and exits nonzero; resume picks
	// up from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	eng.WithContext(ctx)
	return driveFigures(eng, store, figures, ef)
}

// serveReady, when set (by tests), observes the server's bound address just
// before the figure drive starts.
var serveReady func(addr string)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("campaign serve", flag.ExitOnError)
	ef := addEngineFlags(fs)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	lease := fs.Duration("lease", server.DefaultLease, "claimed-cell lease before another worker may reclaim it")
	localWorkers := fs.Int("local-workers", 0, "in-process workers executing alongside remote ones")
	fs.Parse(args)
	if *ef.dir == "" {
		return fmt.Errorf("serve needs -dir")
	}
	figures, err := selectFigures(fs.Args())
	if err != nil {
		return err
	}
	eng, store, err := ef.buildEngine()
	if err != nil {
		return err
	}
	defer store.Close()

	q := &server.Queue{Lease: *lease}
	if !*ef.quiet {
		q.OnEvent = func(ev server.Event) {
			switch ev.Kind {
			case server.EventClaim:
				fmt.Fprintf(os.Stderr, "serve: %s claimed %d cells\n", ev.Worker, len(ev.Keys))
			case server.EventExpire:
				fmt.Fprintf(os.Stderr, "serve: lease expired on %.12s, reclaiming\n", ev.Key)
			case server.EventFail:
				fmt.Fprintf(os.Stderr, "serve: %s failed %.12s\n", ev.Worker, ev.Key)
			}
		}
	}
	eng.Exec = q

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
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
	fmt.Fprintf(os.Stderr, "campaign: serving on http://%s\n", bound)
	hs := &http.Server{Handler: (&server.Server{Queue: q, Store: store, Name: "figures"}).Handler()}
	//lint:allowsharedstate HTTP accept loop: the listener is owned by this goroutine until Shutdown; campaign state is reached only through the Queue's own lock
	go hs.Serve(ln)

	// SIGINT/SIGTERM stops scheduling; the completed prefix is already on
	// disk, the manifest is current, and resume-serving re-leases only the
	// missing suffix.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	eng.WithContext(ctx)

	var wg sync.WaitGroup
	workerErrs := make([]error, *localWorkers)
	for i := 0; i < *localWorkers; i++ {
		wg.Add(1)
		//lint:allowsharedstate in-process campaign workers: they interact with the run only through the same HTTP protocol remote workers use
		go func(i int) {
			defer wg.Done()
			w := &server.Worker{
				Name:    fmt.Sprintf("local-%d", i+1),
				BaseURL: "http://" + bound,
				Retries: *ef.retries,
			}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}

	if serveReady != nil {
		serveReady(bound)
	}
	derr := driveFigures(eng, store, figures, ef)
	// Finished or killed, tell workers to stop claiming, then drain the
	// transport before the deferred store close. Remote workers learn the
	// campaign is done only from their next claim, so keep answering until
	// every worker that ever claimed has been told — or the grace period
	// expires (a SIGKILLed worker never acks).
	q.Finish()
	wg.Wait()
	for drainDeadline := time.Now().Add(5 * time.Second); !q.Drained() && time.Now().Before(drainDeadline); {
		time.Sleep(10 * time.Millisecond)
	}
	// A connection that never sent a request — an HTTP client's spare dial
	// — holds Shutdown for 5 s, past its limit, though the campaign is
	// over: close whatever is left instead of failing the run.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close()
	}
	if derr != nil {
		return derr
	}
	for i, werr := range workerErrs {
		if werr != nil && ctx.Err() == nil {
			return fmt.Errorf("local worker %d: %w", i+1, werr)
		}
	}
	return nil
}

func cmdWork(args []string) error {
	fs := flag.NewFlagSet("campaign work", flag.ExitOnError)
	srvURL := fs.String("server", "", "campaign server to claim from")
	name := fs.String("name", "", "worker name in server-side leases (default host-pid)")
	jobs := fs.Int("jobs", 1, "parallel cell executors")
	batch := fs.Int("batch", 0, "cells per claim (default jobs)")
	retries := fs.Int("retries", 2, "execution attempts per cell")
	quiet := fs.Bool("quiet", false, "suppress per-cell progress lines")
	fs.Parse(args)
	if *srvURL == "" {
		return fmt.Errorf("work needs -server")
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &server.Worker{
		Name:    *name,
		BaseURL: *srvURL,
		Jobs:    *jobs,
		Batch:   *batch,
		Retries: *retries,
	}
	if !*quiet {
		w.OnCell = func(ev server.WorkerEvent) {
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "work: FAIL %s: %v\n", ev.Label, ev.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "work: %-9s %s (%.2fs)\n", ev.Status, ev.Label, ev.Seconds)
		}
	}
	if err := w.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "work: campaign complete, %s exiting\n", *name)
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("campaign status", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory")
	srvURL := fs.String("server", "", "query a live campaign server instead of a directory")
	fs.Parse(args)
	if *srvURL != "" {
		resp, err := http.Get(*srvURL + server.PathStatus)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("server status: %s", resp.Status)
		}
		var st server.StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return err
		}
		fmt.Printf("campaign   %s (live)\n", st.Name)
		fmt.Printf("stored     %d records\n", st.Stored)
		fmt.Printf("queue      %d pending, %d leased, done=%v\n", st.Pending, st.Leased, st.Done)
		fmt.Printf("traffic    %d claims, %d leased, %d completed, %d duplicates, %d expired, %d failed\n",
			st.Stats.Claims, st.Stats.Leased, st.Stats.Completed, st.Stats.Duplicates, st.Stats.Expired, st.Stats.Failed)
		return nil
	}
	if *dir == "" {
		return fmt.Errorf("status needs -dir or -server")
	}
	m, err := campaign.ReadManifest(*dir)
	if err != nil {
		return err
	}
	store, err := campaign.LoadStore(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("campaign   %s\n", m.Name)
	fmt.Printf("store      %s (%d records)\n", *dir, store.Len())
	fmt.Printf("progress   %d/%d cells\n", m.Done, m.Cells)
	fmt.Printf("sources    %d executed, %d store, %d cache, %d memo\n",
		m.Executed, m.StoreHits, m.CacheHits, m.MemoHits)
	fmt.Printf("hash       %s\n", m.CampaignHash)
	fmt.Printf("toolchain  %s\n", m.GoVersion)
	fmt.Printf("wall       %.1fs\n", m.WallSeconds)
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("campaign export", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory")
	srvURL := fs.String("server", "", "stream from a live campaign server instead of a directory")
	outPath := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *srvURL != "" {
		resp, err := http.Get(*srvURL + server.PathExport)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("server export: %s", resp.Status)
		}
		_, err = io.Copy(w, resp.Body)
		return err
	}
	if *dir == "" {
		return fmt.Errorf("export needs -dir or -server")
	}
	store, err := campaign.LoadStore(*dir)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for _, rec := range store.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
