// Package analysis is ftrepair's project-specific static-analysis suite: a
// set of analyzers over go/ast + go/types that pin down invariants the
// repair algorithms rely on but neither the compiler, go vet nor the test
// suites check — cooperative cancellation polled inside unbounded loops,
// epsilon-based float comparisons, error wrapping that keeps errors.Is
// working, map-order and clock nondeterminism kept out of repair
// decisions, joined goroutine fan-outs, and obs spans ended on every path.
//
// The analyzer logic is framework-agnostic: each analyzer is a pure
// function from a type-checked package (a Pass) to diagnostics, mirroring
// golang.org/x/tools/go/analysis so the suite can be rehosted on
// multichecker unchanged when the dependency is available. The build
// environment here has no module proxy, so cmd/repairlint drives the same
// analyzers on a small stdlib-only loader (internal/analysis/load).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one finding: a position in the analyzed package and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through an analyzer run. It is the
// stdlib-only mirror of x/tools' analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Report   func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one named check. Run inspects the Pass and reports findings;
// a non-nil error means the analyzer itself failed (not that code is bad).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns every analyzer in the suite, in stable order: the AST-local
// checks first, then the determinism, concurrency and observability
// analyzers that use the CFG layer.
func All() []*Analyzer {
	return []*Analyzer{
		CancelPoll,
		FloatEq,
		ErrFmt,
		MapIter,
		NonDeterm,
		GoGuard,
		SpanEnd,
	}
}

// ByName resolves a comma-separated analyzer list against the suite,
// erroring on unknown names. An empty spec selects every analyzer.
func ByName(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// funcUnit is one function body analyzed in isolation: a FuncDecl or a
// FuncLit. Nested function literals are split into their own units so that
// a closure's loops are judged against the closure's own signature, not the
// enclosing function's.
type funcUnit struct {
	name string
	sig  *types.Signature
	body *ast.BlockStmt
}

// funcUnits collects every function body in the file set of the pass.
func funcUnits(pass *Pass) []funcUnit {
	var units []funcUnit
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sig, _ := pass.Info.Defs[fd.Name].Type().(*types.Signature)
			units = append(units, funcUnit{name: fd.Name.Name, sig: sig, body: fd.Body})
			units = append(units, literalUnits(pass, fd.Name.Name, fd.Body)...)
		}
	}
	return units
}

// literalUnits extracts nested FuncLit bodies (recursively) as units.
func literalUnits(pass *Pass, outer string, body *ast.BlockStmt) []funcUnit {
	var units []funcUnit
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		sig, _ := pass.Info.Types[lit].Type.(*types.Signature)
		units = append(units, funcUnit{name: outer + ".func", sig: sig, body: lit.Body})
		units = append(units, literalUnits(pass, outer+".func", lit.Body)...)
		return false
	})
	return units
}

// inspectShallow walks n without descending into nested function literals,
// so statements of a unit are attributed to that unit alone.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
