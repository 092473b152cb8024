// Package sharedstate defines a goroutine-discipline analyzer for the
// simulator's single-goroutine substrate types. sim.Engine is a
// single-threaded heap, experiment.Arena is strictly worker-local
// (engine + record slab reused across one worker's cell stream), and
// metrics.RecordSlab hands out records that die on Reset — none of them
// tolerate concurrent access, and none carry locks, by design: the
// determinism contract wants one goroutine per simulation. Moving any of
// them onto a new goroutine or across a channel is therefore either a bug
// or a synchronization site that must be designed and annotated
// deliberately (the fork-join sweeps of sim.For).
package sharedstate

import (
	"go/ast"
	"go/types"

	"alertmanet/internal/lint/lintutil"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Marker is the escape-hatch comment: //lint:allowsharedstate <reason>. A
// reviewed annotation is how a deliberate cross-goroutine hand-off (a
// fork-join worker or a harness worker pool) signs itself.
const Marker = "allowsharedstate"

// guarded lists the single-goroutine substrate types: type name -> owning
// package patterns (fixture stand-ins match by final path element).
var guarded = []struct {
	typeName string
	pkgs     []string
}{
	{"Engine", []string{"internal/sim"}},
	{"Arena", []string{"internal/experiment"}},
	{"RecordSlab", []string{"internal/metrics"}},
}

// substratePkgs lists the packages forming the simulator's concurrency
// surface: the engine and its fork-join, the medium that schedules on it,
// and the two harness layers that fan simulations out over workers. Inside
// them EVERY go statement and channel send — not just ones moving a
// guarded type — is a synchronization site of the determinism contract and
// must carry a reviewed //lint:allowsharedstate annotation stating why the
// hand-off cannot reorder observable events.
var substratePkgs = []string{
	"internal/sim",
	"internal/medium",
	"internal/experiment",
	"internal/campaign",
}

var Analyzer = &analysis.Analyzer{
	Name: "sharedstate",
	Doc: "flag single-goroutine simulation state crossing a goroutine boundary\n\n" +
		"sim.Engine, experiment.Arena and metrics.RecordSlab are single-goroutine\n" +
		"by design (no locks; determinism wants one goroutine per simulation).\n" +
		"Passing one to a `go` call, capturing one in a goroutine's closure, or\n" +
		"sending one on a channel is reported. State created inside the goroutine\n" +
		"(a worker-local arena) is fine. In the substrate packages themselves\n" +
		"(internal/sim, internal/medium, internal/experiment, internal/campaign)\n" +
		"the rule hardens: every go statement and channel send is a reviewed\n" +
		"synchronization site and must be annotated. _test.go files are exempt.\n" +
		"Escape hatch: //lint:allowsharedstate <reason> on the go/send statement.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	markers := lintutil.NewMarkers(pass)
	substrate := lintutil.PackageMatchesAny(pass.Pkg.Path(), substratePkgs)

	allowed := func(pos ast.Node) bool {
		if lintutil.IsTestFile(pass, pos.Pos()) {
			return true
		}
		_, ok := markers.Reason(pos.Pos(), Marker)
		return ok
	}

	ins.Preorder([]ast.Node{(*ast.GoStmt)(nil), (*ast.SendStmt)(nil)}, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.GoStmt:
			if allowed(x) {
				return
			}
			if substrate {
				pass.Reportf(x.Pos(),
					"goroutine in engine substrate package %s: every substrate goroutine is a synchronization site of the determinism contract; annotate //lint:allowsharedstate <reason> after review", pass.Pkg.Path())
				return
			}
			checkGo(pass, x)
		case *ast.SendStmt:
			if allowed(x) {
				return
			}
			if substrate {
				pass.Reportf(x.Pos(),
					"channel send in engine substrate package %s: every substrate hand-off is a synchronization site of the determinism contract; annotate //lint:allowsharedstate <reason> after review", pass.Pkg.Path())
				return
			}
			if name := guardedTypeName(pass.TypesInfo.TypeOf(x.Value)); name != "" {
				pass.Reportf(x.Pos(),
					"%s sent on a channel: it is single-goroutine simulation state; send a message, not the substrate, or annotate //lint:allowsharedstate <reason>", name)
			}
		}
	})
	return nil, nil
}

// checkGo reports guarded state entering a goroutine, either as a call
// argument or captured by the goroutine's function literal from the
// enclosing scope.
func checkGo(pass *analysis.Pass, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if name := guardedTypeName(pass.TypesInfo.TypeOf(arg)); name != "" {
			pass.Reportf(arg.Pos(),
				"%s passed to a goroutine: it is single-goroutine simulation state; create it inside the goroutine or annotate //lint:allowsharedstate <reason>", name)
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	// A use resolving to an object declared outside the literal is a
	// capture; declarations inside (the worker-local arena idiom) are not.
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || reported[obj] {
			return true
		}
		name := guardedTypeName(obj.Type())
		if name == "" {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the goroutine: worker-local
		}
		reported[obj] = true
		pass.Reportf(id.Pos(),
			"goroutine captures %s %q from the enclosing scope: it is single-goroutine simulation state; create it inside the goroutine or annotate //lint:allowsharedstate <reason>", name, id.Name)
		return true
	})
}

// guardedTypeName returns the display name of the guarded type t is (or
// points to), "" otherwise.
func guardedTypeName(t types.Type) string {
	for _, g := range guarded {
		if lintutil.NamedTypeIs(t, g.typeName, g.pkgs) {
			return g.pkgs[0][len("internal/"):] + "." + g.typeName
		}
	}
	return ""
}
