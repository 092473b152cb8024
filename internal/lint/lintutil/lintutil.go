// Package lintutil holds the shared machinery of the alertlint analyzers:
// package-path matching for scope gates and exemptions, test-file detection,
// and the //lint:<marker> <reason> escape-hatch comments that let a reviewed
// call site opt out of a contract with a recorded justification.
package lintutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// PackageMatches reports whether pkgPath is the package named by pattern.
// A pattern like "internal/rng" matches the path itself, any path ending in
// "/internal/rng", and — so analyzer fixtures under testdata/src can use
// short import paths — any package whose final element equals the pattern's
// final element (here "rng").
func PackageMatches(pkgPath, pattern string) bool {
	if pkgPath == pattern || strings.HasSuffix(pkgPath, "/"+pattern) {
		return true
	}
	return lastElem(pkgPath) == lastElem(pattern)
}

// PackageMatchesAny reports whether pkgPath matches any of the patterns.
func PackageMatchesAny(pkgPath string, patterns []string) bool {
	for _, p := range patterns {
		if PackageMatches(pkgPath, p) {
			return true
		}
	}
	return false
}

// HasPathElement reports whether elem appears as a complete element of the
// slash-separated import path (e.g. "cmd" in "alertmanet/cmd/campaign").
func HasPathElement(pkgPath, elem string) bool {
	for _, e := range strings.Split(pkgPath, "/") {
		if e == elem {
			return true
		}
	}
	return false
}

func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// IsTestFile reports whether pos lies in a _test.go file.
func IsTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// NamedTypeIs reports whether t (or the type it points to) is the named type
// `name` declared in a package matching any of pkgPatterns. The contract
// analyzers use it to recognize the guarded types — gpsr.Packet, sim.Engine,
// experiment.Arena, metrics.RecordSlab — in both the real tree and fixture
// stand-ins with short import paths.
func NamedTypeIs(t types.Type, name string, pkgPatterns []string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PackageMatchesAny(obj.Pkg().Path(), pkgPatterns)
}

// Markers indexes the //lint:<name> <reason> comments of a package so
// analyzers can answer "is this position covered by marker <name>?" in O(1).
// A marker covers the line it sits on and the line directly below it, so both
// the trailing-comment and the comment-above styles work:
//
//	panic("unreachable") //lint:allowpanic checked by Validate
//
//	//lint:allowpanic checked by Validate
//	panic("unreachable")
type Markers struct {
	fset *token.FileSet
	// byLine maps file -> line -> marker text ("<name> <reason>").
	byLine map[string]map[int]string
}

// NewMarkers scans the comments of every file in the pass.
func NewMarkers(pass *analysis.Pass) *Markers {
	m := &Markers{fset: pass.Fset, byLine: map[string]map[int]string{}}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				p := m.fset.Position(c.Pos())
				lines := m.byLine[p.Filename]
				if lines == nil {
					lines = map[int]string{}
					m.byLine[p.Filename] = lines
				}
				// Cover the marker's own line (trailing style) and
				// the next line (comment-above style).
				lines[p.Line] = text
				if _, taken := lines[p.Line+1]; !taken {
					lines[p.Line+1] = text
				}
			}
		}
	}
	return m
}

// Reason returns the justification text of marker name covering pos. The
// second result distinguishes "marker present with a reason" from "absent or
// reasonless": a bare //lint:allowpanic with no explanation does not count.
func (m *Markers) Reason(pos token.Pos, name string) (string, bool) {
	p := m.fset.Position(pos)
	text, ok := m.byLine[p.Filename][p.Line]
	if !ok {
		return "", false
	}
	rest, ok := strings.CutPrefix(text, name)
	if !ok || !strings.HasPrefix(rest, " ") {
		// Absent, reasonless, or a different marker sharing the prefix
		// (e.g. "allowpanicky").
		return "", false
	}
	reason := strings.TrimSpace(rest)
	return reason, reason != ""
}

// Present reports whether marker name covers pos at all, with or without a
// reason. Analyzers use it to report "marker needs a reason" instead of the
// generic violation message.
func (m *Markers) Present(pos token.Pos, name string) bool {
	p := m.fset.Position(pos)
	text, ok := m.byLine[p.Filename][p.Line]
	if !ok {
		return false
	}
	rest, ok := strings.CutPrefix(text, name)
	return ok && (rest == "" || strings.HasPrefix(rest, " "))
}

// Annotation is one //lint:<marker> <reason> escape-hatch site found in the
// source tree — the unit `alertlint -allowlist` reports so every exemption
// stays auditable.
type Annotation struct {
	File   string // path relative to the scanned root
	Line   int
	Marker string // marker name, e.g. "allowpanic"
	Reason string // justification text ("" for a bare, invalid marker)
}

// ScanAnnotations walks the Go files under root and collects every
// //lint:<marker> comment, sorted by file then line. vendor/ and testdata/
// trees are skipped: vendored code is not ours to audit and fixtures contain
// markers as test content, not as reviewed exemptions.
func ScanAnnotations(root string) ([]Annotation, error) {
	var out []Annotation
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "vendor", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				marker, reason, _ := strings.Cut(text, " ")
				out = append(out, Annotation{
					File:   rel,
					Line:   fset.Position(c.Pos()).Line,
					Marker: marker,
					Reason: strings.TrimSpace(reason),
				})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out, nil
}

// EnclosingFuncName returns the name of the nearest enclosing FuncDecl in
// stack ("" when the node is at package scope, e.g. a variable initializer).
// Function literals are transparent: a closure defined inside MustRun is
// still "inside MustRun" for policy purposes.
func EnclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}
