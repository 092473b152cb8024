// Command campaign runs and renders the paper's evaluation as one
// declarative sweep: it expands the selected outputs into their full cell
// grids, executes them across a worker pool, and streams each result to an
// append-only store keyed by cell content hash as soon as every cell before
// it is stored. Killing a run loses no stored cell — `resume` (or simply
// re-running) re-executes only the missing ones — and a shared -cache-dir
// makes cells free across campaign directories too. Without -dir, `run`
// resolves cells in memory and writes no store.
//
//	campaign run -dir out/figures-campaign -seeds 5 all
//	campaign resume -dir out/figures-campaign
//	campaign status -dir out/figures-campaign
//	campaign export -dir out/figures-campaign > results.jsonl
//	campaign run -seeds 2 fig14a table1 intersection
//	campaign run -seeds 30 -format md all > report.md
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
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"alertmanet/internal/campaign"
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
  campaign status -dir <campaign-dir>                        print progress and provenance
  campaign export -dir <campaign-dir> [-o f]                 dump the result store as JSONL

run flags:
  -seeds N      independent runs per data point (default 5; paper: 30)
  -jobs N       parallel simulation workers (0 = GOMAXPROCS)
  -max-events N per-cell event budget, 0 = unlimited (runaway guard)
  -cache-dir D  content-addressed cell cache shared across campaigns
  -o DIR        render each output to DIR/<name>.{txt,csv,md} instead of stdout
  -format F     rendered output format: text, csv or md
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

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory (result store + manifest); run without it resolves cells in memory")
	seeds := fs.Int("seeds", 5, "independent runs per data point (paper: 30)")
	jobs := fs.Int("jobs", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	maxEvents := fs.Uint64("max-events", 0, "per-cell event budget (0 = unlimited)")
	cacheDir := fs.String("cache-dir", "", "content-addressed cell cache shared across campaigns")
	outDir := fs.String("o", "", "render each output to <dir>/<name>.{txt,csv,md} instead of stdout")
	format := fs.String("format", "text", "rendered output format: text, csv or md")
	quiet := fs.Bool("quiet", false, "suppress per-cell progress lines")
	fs.Parse(args)
	figures, err := selectFigures(fs.Args())
	if err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}
	if _, ok := experiment.FormatExt(*format); !ok {
		return fmt.Errorf("unknown -format %q (text, csv or md)", *format)
	}

	eng := &campaign.Engine{Name: "figures", Jobs: *jobs, MaxEvents: *maxEvents}
	if *cacheDir != "" {
		if eng.Cache, err = campaign.OpenCache(*cacheDir); err != nil {
			return err
		}
	}
	if *dir != "" {
		if eng.Store, err = campaign.OpenStore(*dir); err != nil {
			return err
		}
		defer eng.Store.Close()
	}
	if !*quiet {
		eng.OnCell = func(ev campaign.CellEvent) {
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "[%d/%d] FAIL  %s: %v\n", ev.Done, ev.Total, ev.Label, ev.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-5s %s (%.2fs)\n", ev.Done, ev.Total, ev.Source, ev.Label, ev.Seconds)
		}
	}

	// A killed run (SIGINT/SIGTERM) stops scheduling, finishes in-flight
	// cells, stores the completed prefix, and exits nonzero; resume picks
	// up from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	eng.WithContext(ctx)
	return driveFigures(eng, figures, *seeds, *format, *outDir)
}

// driveFigures executes and renders the selected outputs through the
// engine, in registry order: the store's byte layout depends only on this
// drive order.
func driveFigures(eng *campaign.Engine, figures []experiment.Figure, seeds int, format, outDir string) error {
	// Announce the planned size: the union of every selected figure's cell
	// grid, deduplicated by content key (adaptive figures plan zero cells
	// and add theirs at render time).
	distinct := map[string]bool{}
	plans := make([]experiment.FigurePlan, len(figures))
	for i, f := range figures {
		if f.Plan == nil {
			continue
		}
		plans[i] = f.Plan(seeds)
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
	if eng.Store != nil {
		stored = fmt.Sprintf("%d already stored", eng.Store.Len())
	}
	fmt.Fprintf(os.Stderr, "campaign: %d planned cells across %d outputs (%s)\n",
		len(distinct), len(figures), stored)

	ext, _ := experiment.FormatExt(format)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
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
		out, err := f.Output(format, eng, seeds)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		if outDir == "" {
			_, err = os.Stdout.Write(append(out, '\n'))
		} else {
			path := filepath.Join(outDir, f.Name+ext)
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

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("campaign status", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("status needs -dir")
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
	outPath := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	// Load the store before creating -o, so a bad -dir leaves the file as
	// it was.
	if *dir == "" {
		return fmt.Errorf("export needs -dir")
	}
	store, err := campaign.LoadStore(*dir)
	if err != nil {
		return err
	}
	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	for _, rec := range store.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if out != os.Stdout {
		return out.Close()
	}
	return nil
}
