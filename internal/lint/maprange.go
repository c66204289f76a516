package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mgs/internal/lint/analysis"
)

// MapRange flags `for range` over a map in deterministic packages, and
// in the host-side packages whose output is promised reproducible (see
// scopeSourceBans), unless the loop provably cannot leak iteration
// order into simulated state or that output. Map iteration order is
// randomized per run, so any order-sensitive effect — event scheduling,
// slice construction, early exit — makes two identical runs diverge.
//
// A map range is accepted when either
//
//   - every statement in the body is an order-insensitive update:
//     body-local declarations, commutative accumulation (+=, -=, *=,
//     |=, &=, ^=, ++, -- on integers; string += concatenates in
//     iteration order and float arithmetic rounds in it, so both are
//     rejected), writes indexed by the range key itself (distinct keys
//     cannot interfere), delete(m, k), and control flow over those that
//     never leaves the loop early (a break out of it is as
//     order-sensitive as a return); or
//   - the body only collects keys/values into local slices via append
//     and the first subsequent use of every such slice is a sort.* /
//     slices.* call (the collect-then-sort idiom used on the simulated
//     path, e.g. System.AcquireSync).
//
// Anything else is a diagnostic.
var MapRange = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "flag map iteration in deterministic packages unless provably order-insensitive or collect-then-sort",
	Run:  runMapRange,
}

func runMapRange(pass *analysis.Pass) error {
	if !scopeSourceBans(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			}
			for i, s := range list {
				rng, ok := s.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t, ok := pass.TypesInfo.Types[rng.X]
				if !ok {
					continue
				}
				if _, isMap := t.Type.Underlying().(*types.Map); !isMap {
					continue
				}
				checkMapRange(pass, rng, list[i+1:])
			}
			return true
		})
	}
	return nil
}

func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, after []ast.Stmt) {
	c := &mapRangeChecker{pass: pass, body: rng.Body, appended: map[*types.Var]bool{}}
	if id, ok := rng.Key.(*ast.Ident); ok {
		c.key, _ = pass.TypesInfo.Defs[id].(*types.Var)
	}
	ok := true
	for _, s := range rng.Body.List {
		if !c.stmtOK(s) {
			ok = false
			break
		}
	}
	if ok {
		for v := range c.appended {
			if !sortedAfter(pass, v, after) {
				ok = false
				break
			}
		}
	}
	if !ok {
		pass.Reportf(rng.Pos(),
			"range over map in deterministic package %s: iteration order is randomized and leaks into simulated state; collect and sort the keys, or restrict the body to commutative updates",
			pass.Pkg.Path())
	}
}

type mapRangeChecker struct {
	pass     *analysis.Pass
	body     *ast.BlockStmt
	key      *types.Var          // range key variable, if an identifier
	appended map[*types.Var]bool // locals built by append, must be sorted after
	inner    int                 // enclosing for/switch statements inside the body: what an unlabeled break leaves
}

// declaredInBody reports whether the identifier resolves to a variable
// declared inside the range body (per-iteration state).
func (c *mapRangeChecker) declaredInBody(id *ast.Ident) bool {
	obj := c.pass.TypesInfo.ObjectOf(id)
	return obj != nil && obj.Pos() >= c.body.Pos() && obj.Pos() < c.body.End()
}

func (c *mapRangeChecker) stmtOK(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt, *ast.DeclStmt, *ast.IncDecStmt:
		return true
	case *ast.BranchStmt:
		// A break that leaves the map range itself keeps whichever keys
		// happened to come first; one that leaves an inner statement does
		// not. Labeled jumps are not followed.
		if s.Label != nil {
			return false
		}
		return s.Tok == token.CONTINUE || s.Tok == token.FALLTHROUGH || (s.Tok == token.BREAK && c.inner > 0)
	case *ast.AssignStmt:
		return c.assignOK(s)
	case *ast.ExprStmt:
		// delete(m, k) commutes with itself across distinct keys.
		call, ok := s.X.(*ast.CallExpr)
		return ok && isBuiltin(c.pass.TypesInfo, call, "delete")
	case *ast.BlockStmt:
		for _, t := range s.List {
			if !c.stmtOK(t) {
				return false
			}
		}
		return true
	case *ast.IfStmt:
		return c.stmtOK(s.Init) && c.stmtOK(s.Body) && c.stmtOK(s.Else)
	case *ast.SwitchStmt:
		return c.stmtOK(s.Init) && c.innerOK(s.Body)
	case *ast.TypeSwitchStmt:
		return c.stmtOK(s.Init) && c.innerOK(s.Body)
	case *ast.CaseClause:
		for _, t := range s.Body {
			if !c.stmtOK(t) {
				return false
			}
		}
		return true
	case *ast.ForStmt:
		return c.stmtOK(s.Init) && c.stmtOK(s.Post) && c.innerOK(s.Body)
	case *ast.RangeStmt:
		// An inner loop is order-insensitive iff its body is; if it
		// ranges over a map itself it gets its own diagnostic.
		return c.innerOK(s.Body)
	default:
		// return, send, go, defer, labeled jumps, ... — all make the
		// outcome depend on which key comes first.
		return false
	}
}

// innerOK checks the body of a for or switch statement nested in the
// range body, inside which an unlabeled break is harmless.
func (c *mapRangeChecker) innerOK(body *ast.BlockStmt) bool {
	c.inner++
	ok := c.stmtOK(body)
	c.inner--
	return ok
}

func (c *mapRangeChecker) assignOK(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.DEFINE:
		return true // declares per-iteration locals
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		// Integer accumulation commutes; string += concatenates in
		// iteration order and float arithmetic is not associative.
		t := c.pass.TypesInfo.TypeOf(s.Lhs[0])
		return t != nil && isIntegerType(t)
	case token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true // commutative accumulation
	case token.ASSIGN:
		for i, lhs := range s.Lhs {
			if !c.plainAssignOK(lhs, s, i) {
				return false
			}
		}
		return true
	}
	return false
}

func (c *mapRangeChecker) plainAssignOK(lhs ast.Expr, s *ast.AssignStmt, i int) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" || c.declaredInBody(lhs) {
			return true
		}
		// s = append(s, ...) into an enclosing-function local: fine if
		// the slice is sorted before any other use after the loop.
		if v, ok := c.pass.TypesInfo.Uses[lhs].(*types.Var); ok && v.Parent() != c.pass.Pkg.Scope() {
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 && isAppendTo(c.pass.TypesInfo, s.Rhs[0], v) {
				c.appended[v] = true
				return true
			}
		}
		return false
	case *ast.IndexExpr:
		// m2[k] = v with k the range key: iterations write distinct
		// elements, so order cannot matter.
		if id, ok := ast.Unparen(lhs.Index).(*ast.Ident); ok && c.key != nil {
			return c.pass.TypesInfo.Uses[id] == c.key
		}
		return false
	}
	return false
}

// isAppendTo reports whether e is append(v, ...).
func isAppendTo(info *types.Info, e ast.Expr, v *types.Var) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || !isBuiltin(info, call, "append") {
		return false
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.Uses[arg0] == v
}

// sortedAfter reports whether, among the statements following the range
// loop in its enclosing block, the first one that mentions v is a
// sort.* / slices.* call with v as an argument.
func sortedAfter(pass *analysis.Pass, v *types.Var, after []ast.Stmt) bool {
	for _, s := range after {
		if !mentions(pass.TypesInfo, s, v) {
			continue
		}
		call, ok := exprCall(s)
		if !ok {
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch pkgNameOf(pass.TypesInfo, sel) {
		case "sort", "slices":
		default:
			return false
		}
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
				return true
			}
		}
		return false
	}
	return false // never sorted (never used again: order still escaped into the slice)
}

func exprCall(s ast.Stmt) (*ast.CallExpr, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	return call, ok
}

func mentions(info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}
