// Package lint assembles the alertlint analyzer suite: the static half of
// the simulator's determinism guarantee. Each analyzer enforces one contract
// that makes a run a pure function of (Scenario, seed) — or, for the memory-
// discipline analyzers added with the PR 6 hot path, one contract that keeps
// the forwarding path allocation-free and the substrate single-goroutine;
// DESIGN.md's "Determinism contract" section is the prose counterpart.
package lint

import (
	"alertmanet/internal/lint/bufreuse"
	"alertmanet/internal/lint/floatcompare"
	"alertmanet/internal/lint/maporder"
	"alertmanet/internal/lint/niltapguard"
	"alertmanet/internal/lint/norawrand"
	"alertmanet/internal/lint/nowallclock"
	"alertmanet/internal/lint/panicdiscipline"
	"alertmanet/internal/lint/poollifetime"
	"alertmanet/internal/lint/sharedstate"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full suite in a fresh slice, one analyzer per
// contract: five determinism/error-discipline analyzers (PR 2) and four
// memory/goroutine-discipline analyzers guarding the pooled hot path and
// the fork-join sweeps.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		norawrand.Analyzer,
		nowallclock.Analyzer,
		maporder.Analyzer,
		panicdiscipline.Analyzer,
		floatcompare.Analyzer,
		poollifetime.Analyzer,
		bufreuse.Analyzer,
		niltapguard.Analyzer,
		sharedstate.Analyzer,
	}
}

// PackageGrant is one static package-level exemption an analyzer ships
// with: unlike //lint: annotations (per-site, audited by location), a
// grant exempts a whole package because the contract is inverted there —
// internal/rng is where raw randomness is supposed to live, internal/live
// is where the wall clock is supposed to be read.
type PackageGrant struct {
	Analyzer string
	Packages []string
	Reason   string
}

// PackageGrants lists every analyzer's static package allowlist so
// `alertlint -allowlist` can print the whole exemption surface — annotated
// sites and package grants — in one audit.
func PackageGrants() []PackageGrant {
	return []PackageGrant{
		{
			Analyzer: norawrand.Analyzer.Name,
			Packages: norawrand.AllowedPackages,
			Reason:   "the one wrapper turning raw randomness into seeded splittable streams",
		},
		{
			Analyzer: nowallclock.Analyzer.Name,
			Packages: nowallclock.AllowedPackages,
			Reason:   "the live transport layer paces emulated time against the real clock by design",
		},
	}
}
