// Arena-style substrate reuse across seeds. A campaign worker burns through
// hundreds of single-seed runs back to back; each run used to build a fresh
// engine (event heap, event pool) and allocate every packet record from
// scratch, so the allocator — not the simulation — bounded cells/min. An
// Arena keeps those structures alive between runs on one worker and
// recycles them.

package experiment

import (
	"alertmanet/internal/metrics"
	"alertmanet/internal/sim"
)

// Arena owns simulation substrate recycled across runs. It is single-
// goroutine state: one worker, one arena — it must never be shared between
// concurrently executing runs.
type Arena struct {
	eng  *sim.Engine
	recs metrics.RecordSlab
}

// NewArena returns an empty arena; capacity accrues over its first run.
func NewArena() *Arena { return &Arena{} }

// engine returns the arena's engine reset to the NewEngine state, keeping
// its allocated capacity.
func (a *Arena) engine() *sim.Engine {
	if a.eng == nil {
		a.eng = sim.NewEngine()
		return a.eng
	}
	a.eng.Reset()
	return a.eng
}

// RunArena is Run with the engine and packet records drawn from the arena.
// The sequencing (build, pairs, workload, drain, collect) is identical to
// Run — reuse must not perturb determinism, only allocation. A nil arena
// degrades to Run.
func RunArena(sc Scenario, a *Arena) (Result, error) {
	if a == nil {
		return Run(sc)
	}
	w, err := buildArena(sc, a)
	if err != nil {
		return Result{}, err
	}
	w.EnableTelemetry(nil)
	pairs := w.ChoosePairs()
	w.StartWorkload(pairs)
	if err := w.Drain(); err != nil {
		return Result{}, err
	}
	res := w.Collect(pairs)
	// The run's records are dead once collected into the Result (which
	// holds aggregates, not record pointers); hand them back for reuse.
	a.recs.Reset()
	return res, nil
}
