package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NonDeterm reports nondeterminism sources inside the repair decision
// packages — internal/repair, internal/vgraph, internal/incr,
// internal/targettree, internal/mis — whose outputs the bit-identical
// contract covers:
//
//   - time.Now (and friends) whose result is used as data rather than
//     purely for duration measurement. Wall-clock timing of phases is fine
//     (start := time.Now(); ...; time.Since(start) feeds Stats); a
//     timestamp stored in a struct, compared against repair state, or used
//     to pick between candidates is not.
//   - any use of math/rand or math/rand/v2: a randomized tie-break or
//     sampling step in a decision path destroys reproducibility.
//   - "first element wins" map selection: a range over a map whose body
//     unconditionally assigns/returns/breaks on the first iteration, so the
//     chosen element depends on iteration order.
//
// Packages outside the decision set (obs, server, cli, benchmarks,
// generators) are exempt: timing, request ids and synthetic-noise seeding
// are their job. The exemption is by import-path suffix, so the testdata
// fixtures opt in by directory layout.
var NonDeterm = &Analyzer{
	Name: "nondeterm",
	Doc:  "flags time/rand/map-order nondeterminism inside repair decision packages",
	Run:  runNonDeterm,
}

// nonDetermChecked reports whether pkg is a repair decision package.
func nonDetermChecked(pkg string) bool {
	for _, suf := range []string{
		"internal/repair", "internal/vgraph", "internal/incr",
		"internal/targettree", "internal/mis",
	} {
		if strings.HasSuffix(pkg, suf) {
			return true
		}
	}
	return false
}

func runNonDeterm(pass *Pass) error {
	if pass.Pkg == nil || !nonDetermChecked(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				checkClockCall(pass, e)
			case *ast.SelectorExpr:
				checkRandUse(pass, e)
			case *ast.RangeStmt:
				checkMapSelection(pass, e)
			}
			return true
		})
	}
	return nil
}

// checkClockCall flags time.Now()/time.Since() results used as data. The
// duration-measurement idiom is exempt:
//
//	start := time.Now()          // every use of start is Since/Sub/Before...
//	elapsed := time.Since(start) // durations are deterministic *inputs* only
//	                             // when they never steer repair decisions;
//	                             // Stats attachment is fine.
//
// Exempt shapes: the call is the receiver of a comparison/difference method
// (Sub, Before, After, Equal, Compare), the argument of time.Since/Until,
// or it initializes a variable whose every use is one of those shapes or an
// argument to a duration conversion (.Seconds() etc. on the derived value
// are beyond this analyzer's reach and judged by their own use sites).
func checkClockCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isPkgFunc(pass, sel, "time", "Now") {
		return
	}
	parent := clockParent(pass, call)
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// time.Now().Sub(x) / .Before(x) / ... — comparison against another
		// instant, duration math; deterministic inputs don't flow out.
		if isDurationMethod(p.Sel.Name) {
			return
		}
	case *ast.CallExpr:
		// time.Since is itself duration measurement.
		if s, ok := p.Fun.(*ast.SelectorExpr); ok && isPkgFunc(pass, s, "time", "Since") {
			return
		}
	case *ast.AssignStmt:
		// start := time.Now(): exempt when every use of start is duration
		// measurement.
		if obj := assignedObj(pass, p, call); obj != nil && usesAreDurationOnly(pass, obj) {
			return
		}
	}
	pass.Reportf(call.Pos(), "time.Now() result used as data in a repair decision package; wall-clock values vary run to run — restrict it to duration measurement or //lint:ignore nondeterm with a reason")
}

// clockParent finds the immediate enclosing expression/statement of call in
// its file, so the use shape can be classified.
func clockParent(pass *Pass, call *ast.CallExpr) ast.Node {
	for _, f := range pass.Files {
		if call.Pos() < f.Pos() || call.Pos() > f.End() {
			continue
		}
		var parent ast.Node
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				if len(stack) > 0 {
					stack = stack[:len(stack)-1]
				}
				return true
			}
			if n == ast.Node(call) && len(stack) > 0 {
				parent = stack[len(stack)-1]
				return false
			}
			stack = append(stack, n)
			return parent == nil
		})
		if parent != nil {
			return parent
		}
	}
	return nil
}

// assignedObj returns the object bound to call in assignment st (handles
// multi-assign by position).
func assignedObj(pass *Pass, st *ast.AssignStmt, call *ast.CallExpr) types.Object {
	for i, rhs := range st.Rhs {
		if rhs != ast.Expr(call) || i >= len(st.Lhs) {
			continue
		}
		if id, ok := st.Lhs[i].(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				return obj
			}
			return pass.Info.Uses[id]
		}
	}
	return nil
}

// usesAreDurationOnly reports whether every use of obj is duration
// measurement: receiver of Sub/Before/After/Equal/Compare, or argument to
// time.Since/time.Until.
func usesAreDurationOnly(pass *Pass, obj types.Object) bool {
	for id, o := range pass.Info.Uses {
		if o != obj {
			continue
		}
		if !durationUse(pass, id) {
			return false
		}
	}
	return true
}

// durationUse classifies one identifier occurrence.
func durationUse(pass *Pass, id *ast.Ident) bool {
	for _, f := range pass.Files {
		if id.Pos() < f.Pos() || id.Pos() > f.End() {
			continue
		}
		ok := false
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				if len(stack) > 0 {
					stack = stack[:len(stack)-1]
				}
				return true
			}
			if n == ast.Node(id) {
				ok = durationContext(pass, stack, id)
				return false
			}
			stack = append(stack, n)
			return !ok
		})
		return ok
	}
	return false
}

// durationContext judges an identifier against its enclosing nodes
// (innermost last): x.Sub(...) receiver, time.Since(x)/time.Until(x)
// argument.
func durationContext(pass *Pass, stack []ast.Node, id *ast.Ident) bool {
	if len(stack) == 0 {
		return false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		return p.X == ast.Expr(id) && isDurationMethod(p.Sel.Name)
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == ast.Expr(id) {
				if s, ok := p.Fun.(*ast.SelectorExpr); ok {
					return isPkgFunc(pass, s, "time", "Since") || isPkgFunc(pass, s, "time", "Until")
				}
			}
		}
	}
	return false
}

func isDurationMethod(name string) bool {
	switch name {
	case "Sub", "Before", "After", "Equal", "Compare":
		return true
	}
	return false
}

// isPkgFunc reports whether sel resolves (via type info) to pkgPath.name.
func isPkgFunc(pass *Pass, sel *ast.SelectorExpr, pkgPath, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath
}

// checkRandUse flags any reference into math/rand or math/rand/v2.
func checkRandUse(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		pass.Reportf(sel.Pos(), "%s.%s in a repair decision package: randomized choices break the bit-identical contract; derive tie-breaks from stable keys instead", obj.Pkg().Name(), sel.Sel.Name)
	}
}

// checkMapSelection flags "first element wins" ranges: a map range whose
// body's statement list ends in an unconditional break or return after only
// plain assignments — the selected element is whichever key Go happens to
// yield first. Conditional breaks (search loops: if k == want { break })
// are deterministic and exempt.
func checkMapSelection(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	for _, s := range rng.Body.List {
		switch st := s.(type) {
		case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.ExprStmt:
			continue
		case *ast.BranchStmt:
			if st.Tok == token.BREAK {
				pass.Reportf(rng.Pos(), "range over map breaks unconditionally on the first element: the selection depends on randomized iteration order; pick by sorted key or an explicit criterion")
			}
			return
		case *ast.ReturnStmt:
			pass.Reportf(rng.Pos(), "range over map returns unconditionally on the first element: the selection depends on randomized iteration order; pick by sorted key or an explicit criterion")
			return
		default:
			return
		}
	}
}
