// Package campaign is the sweep engine that runs the paper's whole
// evaluation as one resumable, cache-deduplicated campaign. A campaign is a
// set of cells — each a fully specified (Scenario, seed) simulation run or
// a mobility-only remaining-nodes sample — identified by a content hash of
// its configuration (experiment.Scenario.Hash / RemainingSpec.Hash). The
// Engine executes cells across a bounded worker pool, streams each
// finished result to an append-only JSONL store in deterministic order,
// and deduplicates against an in-memory memo, the store, and an optional
// content-addressed cache, so re-runs, cross-figure duplicate cells, and
// resumed campaigns only execute what is missing.
package campaign

import (
	"fmt"

	"alertmanet/internal/experiment"
)

// Kind discriminates the two cell shapes.
type Kind string

// The cell kinds.
const (
	// KindRun is a full simulation run of one Scenario at its seed.
	KindRun Kind = "run"
	// KindRemaining is a mobility-only destination-zone sample
	// (experiment.RunRemaining).
	KindRemaining Kind = "remaining"
)

// Cell is one unit of campaign work. Exactly one of Run/Rem is meaningful,
// selected by Kind.
type Cell struct {
	Kind Kind
	Run  experiment.Scenario
	Rem  experiment.RemainingSpec
}

// RunCell wraps a scenario (which carries its own Seed) as a cell.
func RunCell(sc experiment.Scenario) Cell { return Cell{Kind: KindRun, Run: sc} }

// RemainingCell wraps a mobility-only spec as a cell.
func RemainingCell(spec experiment.RemainingSpec) Cell {
	return Cell{Kind: KindRemaining, Rem: spec}
}

// Key returns the cell's content-addressed identity: the hex SHA-256 of its
// full configuration including the seed. Identical cells requested by
// different figures — or by a resumed campaign — collide here, which is
// what makes deduplication and resume free.
func (c Cell) Key() string {
	if c.Kind == KindRun {
		return c.Run.Hash()
	}
	return c.Rem.Hash()
}

// Label renders the cell for progress lines and error messages.
func (c Cell) Label() string {
	if c.Kind == KindRun {
		return fmt.Sprintf("run %s N=%d v=%g seed=%d",
			c.Run.Protocol, c.Run.N, c.Run.Speed, c.Run.Seed)
	}
	return fmt.Sprintf("remaining N=%d H=%d v=%g seed=%d",
		c.Rem.N, c.Rem.H, c.Rem.Speed, c.Rem.Seed)
}

// Execute runs the cell to completion and returns its storable record. The
// arena (may be nil) supplies recycled simulation substrate and must not be
// shared with a concurrent Execute.
func (c Cell) Execute(arena *experiment.Arena) (*Record, error) {
	return c.execute(c.Key(), arena)
}

// execute runs the cell and wraps its outcome as a storable record. The
// arena (may be nil) supplies recycled simulation substrate; it belongs to
// the calling worker and must not be shared with a concurrent execute.
func (c Cell) execute(key string, arena *experiment.Arena) (*Record, error) {
	switch c.Kind {
	case KindRun:
		res, err := experiment.RunArena(c.Run, arena)
		if err != nil {
			return nil, err
		}
		rj := encodeResult(res)
		return &Record{
			Key: key, Kind: KindRun, Seed: c.Run.Seed,
			Protocol: string(c.Run.Protocol), Result: &rj,
		}, nil
	case KindRemaining:
		res, err := experiment.RunRemaining(c.Rem)
		if err != nil {
			return nil, err
		}
		return &Record{
			Key: key, Kind: KindRemaining, Seed: c.Rem.Seed, Remaining: &res,
		}, nil
	default:
		return nil, fmt.Errorf("campaign: unknown cell kind %q", c.Kind)
	}
}
