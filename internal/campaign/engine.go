// The campaign engine: an experiment.Runner that resolves each requested
// cell from the cheapest source that has it — in-memory memo, the
// campaign's own store, the shared content-addressed cache — and executes
// only what is left, across a bounded worker pool. Executed and
// cache-resolved results are appended to the store strictly in request
// order through a reorder cursor that advances as cells finish, so the
// results.jsonl a campaign produces is a deterministic function of its cell
// list: a run killed partway leaves a prefix, and resuming appends exactly
// the missing suffix, byte-identical to a never-interrupted run. Cells are
// deterministic functions of their keys, so a failed cell is not retried.

package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"alertmanet/internal/experiment"
)

// Stats counts where a campaign's cells were resolved from.
type Stats struct {
	// Cells is the number of distinct cells resolved.
	Cells int
	// Executed cells actually ran a simulation.
	Executed int
	// MemoHits were already resolved earlier in this process.
	MemoHits int
	// StoreHits were found in this campaign's own store (resume).
	StoreHits int
	// CacheHits came from the shared content-addressed cache.
	CacheHits int
	// Failed cells returned an error or were cancelled.
	Failed int
}

// CellEvent reports one cell's resolution to the progress callback.
type CellEvent struct {
	// Done is the cumulative number of distinct cells resolved so far and
	// Total the expected campaign size (0 when not announced via Expect).
	Done  int
	Total int
	// Label and Key identify the cell.
	Label string
	Key   string
	// Source is where the result came from: "run", "memo", "store", or
	// "cache".
	Source string
	// Seconds is the execution wall time (0 unless Source is "run").
	Seconds float64
	// Err is non-nil when the cell failed or was cancelled.
	Err error
}

// Engine executes campaign cells. The zero value runs cells directly with
// no persistence; wiring Store and Cache adds resume and cross-campaign
// deduplication. Engine implements experiment.Runner, so every figure in
// the registry renders through it unchanged.
type Engine struct {
	// Name labels the campaign in its manifest.
	Name string
	// Jobs bounds the worker pool; 0 means GOMAXPROCS.
	Jobs int
	// MaxEvents, when non-zero, is stamped onto every run cell that does
	// not set its own — the per-cell runaway guard (the simulator aborts a
	// run whose event count exceeds it). Stamping happens before keying,
	// so the bound is part of the cell's identity.
	MaxEvents uint64
	// Store, when set, receives every resolved cell in request order.
	Store *Store
	// Cache, when set, memoizes results across campaigns.
	Cache *Cache
	// OnCell, when set, observes each cell resolution.
	OnCell func(CellEvent)

	ctx     context.Context
	mu      sync.Mutex
	memo    map[string]*Record
	stats   Stats
	total   int
	started time.Time
}

// WithContext arranges for the engine to stop scheduling new cells when
// ctx is cancelled; already-running cells finish and are stored.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	e.ctx = ctx
	return e
}

// Expect announces the campaign's planned cell count for progress events.
func (e *Engine) Expect(total int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.total = total
}

// Snapshot returns a copy of the engine's resolution counters.
func (e *Engine) Snapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// RunBatch implements experiment.Runner for full simulation cells.
func (e *Engine) RunBatch(cells []experiment.Scenario) ([]experiment.Result, error) {
	wrapped := make([]Cell, len(cells))
	for i, sc := range cells {
		if e.MaxEvents != 0 && sc.MaxEvents == 0 {
			sc.MaxEvents = e.MaxEvents
		}
		wrapped[i] = RunCell(sc)
	}
	recs, err := e.resolve(wrapped)
	if err != nil {
		return nil, err
	}
	results := make([]experiment.Result, len(recs))
	for i, rec := range recs {
		if rec.Result == nil {
			return nil, fmt.Errorf("campaign: record %.12s is not a run result", rec.Key)
		}
		results[i] = rec.Result.decode()
	}
	return results, nil
}

// RemainingBatch implements experiment.Runner for mobility-only cells.
func (e *Engine) RemainingBatch(cells []experiment.RemainingSpec) ([]experiment.RemainingResult, error) {
	wrapped := make([]Cell, len(cells))
	for i, spec := range cells {
		wrapped[i] = RemainingCell(spec)
	}
	recs, err := e.resolve(wrapped)
	if err != nil {
		return nil, err
	}
	results := make([]experiment.RemainingResult, len(recs))
	for i, rec := range recs {
		if rec.Remaining == nil {
			return nil, fmt.Errorf("campaign: record %.12s is not a remaining result", rec.Key)
		}
		results[i] = *rec.Remaining
	}
	return results, nil
}

// pending is one distinct cell's resolution state within a batch.
type pending struct {
	cell       Cell
	key        string
	rec        *Record
	err        error
	source     string
	seconds    float64
	needsExec  bool
	needsStore bool
	done       bool
}

// resolve deduplicates the batch, resolves each distinct cell from the
// cheapest available source, executes the remainder, and returns records
// aligned with the input cells. Store appends happen in first-occurrence
// order regardless of execution interleaving.
func (e *Engine) resolve(cells []Cell) ([]*Record, error) {
	if e.started.IsZero() {
		//lint:allowwallclock manifest provenance: campaign wall time is reporting, not simulation state
		e.started = time.Now()
	}

	// Deduplicate to distinct cells in first-occurrence order. The slice,
	// not the map, drives every later loop — map iteration order never
	// reaches results.
	seen := map[string]*pending{}
	var uniq []*pending
	for _, c := range cells {
		key := c.Key()
		if _, ok := seen[key]; ok {
			continue
		}
		p := &pending{cell: c, key: key}
		seen[key] = p
		uniq = append(uniq, p)
	}

	// Resolve from memo, store, and cache before touching the pool.
	e.mu.Lock()
	if e.memo == nil {
		e.memo = map[string]*Record{}
	}
	for _, p := range uniq {
		if rec, ok := e.memo[p.key]; ok {
			p.rec, p.source, p.done = rec, "memo", true
			continue
		}
		if e.Store != nil {
			if rec, ok := e.Store.Get(p.key); ok {
				p.rec, p.source, p.done = rec, "store", true
				e.memo[p.key] = rec
				continue
			}
		}
		if e.Cache != nil {
			if rec := e.Cache.Get(p.key); rec != nil {
				p.rec, p.source, p.done = rec, "cache", true
				p.needsStore = true
				e.memo[p.key] = rec
				continue
			}
		}
		p.needsExec = true
		p.needsStore = true
	}
	e.mu.Unlock()

	// Report hits now; executed cells report live from the workers.
	var toRun []*pending
	for _, p := range uniq {
		if p.needsExec {
			toRun = append(toRun, p)
		} else {
			e.note(p)
		}
	}

	// Execute what is left. Workers append resolved cells to the store in
	// uniq order as they finish: a cell is written only once every earlier
	// store-bound cell is done, so a kill leaves an order-exact prefix. A
	// failed (or skipped) cell blocks the store from there on — later
	// successes reach only the cache, and a resumed campaign re-resolves
	// them from it.
	var execErr error
	if len(toRun) > 0 {
		execErr = e.execute(uniq, toRun)
	}

	// Flush what the workers could not append and join errors in
	// deterministic uniq order; Append skips records already stored.
	var errs []error
	e.mu.Lock()
	blocked := false
	for _, p := range uniq {
		if p.err != nil {
			errs = append(errs, fmt.Errorf("cell %s (key %.12s): %w", p.cell.Label(), p.key, p.err))
			blocked = true
		}
		if p.done && p.rec != nil {
			e.memo[p.key] = p.rec
			if p.needsStore && e.Store != nil && !blocked {
				if err := e.Store.Append(p.rec); err != nil {
					errs = append(errs, err)
					blocked = true
				}
			}
		}
	}
	e.mu.Unlock()

	if e.Store != nil {
		if err := e.writeManifest(); err != nil {
			errs = append(errs, err)
		}
	}
	if execErr != nil || len(errs) > 0 {
		return nil, errors.Join(errs...)
	}

	out := make([]*Record, len(cells))
	for i, c := range cells {
		out[i] = seen[c.Key()].rec
	}
	return out, nil
}

// execute runs the pending cells across a pool of Jobs workers. Each
// worker recycles its simulation substrate (engine event storage,
// packet-record slab) across the cells it executes; the arena is strictly
// worker-local. It returns non-nil only for context cancellation; per-cell
// failures land in pending.err.
func (e *Engine) execute(uniq, toRun []*pending) error {
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := e.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	jobs = min(jobs, len(toRun))

	// cursor indexes uniq: every store-bound record before it is stored.
	cursor := 0
	next := make(chan *pending)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		//lint:allowsharedstate campaign worker: the arena (engine + record slab) is created inside the goroutine and never crosses it; results leave only through publish, which holds the engine lock
		go func() {
			defer wg.Done()
			arena := experiment.NewArena()
			for p := range next {
				if err := ctx.Err(); err != nil {
					e.publish(uniq, &cursor, p, nil, err, 0)
					continue
				}
				//lint:allowwallclock per-cell wall time feeds progress display and throughput reporting only
				start := time.Now()
				rec, err := p.cell.execute(p.key, arena)
				//lint:allowwallclock per-cell wall time feeds progress display and throughput reporting only
				seconds := time.Since(start).Seconds()
				if err == nil && e.Cache != nil {
					err = e.Cache.Put(rec)
				}
				e.publish(uniq, &cursor, p, rec, err, seconds)
			}
		}()
	}
	for _, p := range toRun {
		// Stop handing out new cells once cancelled; in-flight cells
		// finish and are stored.
		if err := ctx.Err(); err != nil {
			e.publish(uniq, &cursor, p, nil, err, 0)
			continue
		}
		//lint:allowsharedstate work-distribution hand-off: the cell is owned by exactly one worker from this send until it publishes the result under the engine lock
		next <- p
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}

// publish records one executed (or cancelled) cell's outcome, appends to
// the store every record the batch's finished prefix now allows, and
// reports the cell. A record whose cache put failed is kept (rec and err
// both set) but blocks the store like any failure.
func (e *Engine) publish(uniq []*pending, cursor *int, p *pending, rec *Record, err error, seconds float64) {
	e.mu.Lock()
	p.seconds, p.err = seconds, err
	if rec != nil {
		p.rec, p.source, p.done = rec, "run", true
	}
	if e.Store != nil {
		// Stop at the first cell still running or failed. A failed append
		// stops the cursor too; the batch-end flush retries and reports it.
		for ; *cursor < len(uniq); *cursor++ {
			q := uniq[*cursor]
			if !q.done || q.err != nil || (q.needsStore && e.Store.Append(q.rec) != nil) {
				break
			}
		}
	}
	e.mu.Unlock()
	e.note(p)
}

// note accounts one cell's resolution and fires the progress callback.
// The callback runs outside the engine lock, so it may call Snapshot or
// cancel the engine's context (how a test kills a campaign after K cells).
func (e *Engine) note(p *pending) {
	e.mu.Lock()
	e.stats.Cells++
	switch p.source {
	case "memo":
		e.stats.MemoHits++
	case "store":
		e.stats.StoreHits++
	case "cache":
		e.stats.CacheHits++
	case "run":
		e.stats.Executed++
	}
	if p.err != nil {
		e.stats.Failed++
	}
	ev := CellEvent{
		Done: e.stats.Cells, Total: e.total,
		Label: p.cell.Label(), Key: p.key, Source: p.source,
		Seconds: p.seconds, Err: p.err,
	}
	cb := e.OnCell
	e.mu.Unlock()
	if cb != nil {
		cb(ev)
	}
}

// writeManifest refreshes the campaign manifest after a batch.
func (e *Engine) writeManifest() error {
	e.mu.Lock()
	stats := e.stats
	total := e.total
	started := e.started
	e.mu.Unlock()
	done := e.Store.Len()
	// Adaptive figures add cells beyond the announced plan; the manifest
	// total tracks what actually ran.
	if total < done {
		total = done
	}
	//lint:allowwallclock manifest provenance: campaign wall time is reporting, not simulation state
	wall := time.Since(started).Seconds()
	return e.Store.WriteManifest(Manifest{
		Name:         e.Name,
		CampaignHash: campaignHash(e.Store.Keys()),
		Cells:        total,
		Done:         done,
		Executed:     stats.Executed,
		CacheHits:    stats.CacheHits,
		StoreHits:    stats.StoreHits,
		MemoHits:     stats.MemoHits,
		GoVersion:    runtime.Version(),
		WallSeconds:  wall,
	})
}
