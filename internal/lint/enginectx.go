package lint

import (
	"go/ast"
	"go/types"

	"mgs/internal/lint/analysis"
)

// EngineCtx enforces the engine/processor context split documented in
// internal/sim/proc.go: event callbacks run in engine context, where
// only the engine-safe Proc methods (Wake, AddDebt, HandlerStart,
// Parked, ...) are legal; the yielding methods (Sleep, Park, Yield) and
// the clock-advancing Advance must only run on the proc's own body
// goroutine. Violating this either deadlocks the handshake or advances
// a clock the engine believes is frozen.
//
// An event callback is whatever is handed to a scheduler — Engine's
// At/AtOn/After/AtChoice/AtHandler/AtChoiceHandler, Network's
// Send/SendTagged, or algo.Env's Send/At forwarders of those: a
// function literal (bare, or converted to an adapter type such as
// msg.Func), or a record whose static type has the Deliver or Fire
// method the scheduler will call (a pooled protocol message, a lock
// hand-off, a delivery).
//
// The analyzer builds a same-package call graph, seeds engine context
// from every such literal and record method, seeds proc context from
// functions with a *sim.Proc receiver or parameter that are not
// engine-reachable, and then:
//
//   - rule 1: flags calls to Proc.Sleep/Park/Yield/Advance inside
//     engine-reachable code that is not also proc-reachable (functions
//     reachable both ways are skipped — the analysis cannot decide
//     them);
//   - rule 2: flags direct writes to fields of engine-owned state
//     (sim.Engine, core's duq) from proc-only code outside the owning
//     type's own methods — proc-context code must go through the
//     sanctioned transfer API (Engine.At/After, duq.add/remove/pop).
var EngineCtx = &analysis.Analyzer{
	Name: "enginectx",
	Doc:  "enforce the engine-context/proc-context split: no yielding Proc calls from event callbacks, no direct engine-state writes from proc code",
	Run:  runEngineCtx,
}

// procOnlyMethods are the Proc methods that yield to the engine or
// advance the local clock: body-goroutine only.
var procOnlyMethods = []string{"Sleep", "Park", "Yield", "Advance"}

func runEngineCtx(pass *analysis.Pass) error {
	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo

	// Engine-context roots: callback literals and handler records handed
	// to the scheduler. They are collected from a plain syntax walk
	// first so the call graph can avoid attributing the literals' bodies
	// to the function that merely schedules them.
	rootSet := map[*ast.FuncLit]bool{}
	var rootLits []*ast.FuncLit
	var engineSeeds []*types.Func
	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				callee := calleeOf(info, call)
				if isMethodOn(callee, "sim", "Engine", "At", "AtOn", "After", "AtChoice", "AtHandler", "AtChoiceHandler") ||
					isMethodOn(callee, "msg", "Network", "Send", "SendTagged") ||
					isMethodOn(callee, "msync/algo", "Env", "Send", "At") {
					for _, a := range call.Args {
						if lit := funcLitArg(info, a); lit != nil {
							rootSet[lit] = true
							rootLits = append(rootLits, lit)
							continue
						}
						engineSeeds = append(engineSeeds, handlerMethods(pass, info.TypeOf(a))...)
					}
				}
			}
			return true
		})
	}
	g := buildFuncGraphSkipping(pass, rootSet)

	// Named functions called (same-package) from the engine-context
	// literals, then everything those and the record methods reach.
	for _, lit := range rootLits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := calleeOf(info, call); callee != nil && callee.Pkg() == pass.Pkg {
					if _, declared := g.decls[callee]; declared {
						engineSeeds = append(engineSeeds, callee)
					}
				}
			}
			return true
		})
	}
	engineReach := g.reach(engineSeeds)

	// Proc-context roots: declared functions with a *sim.Proc receiver
	// or parameter that the engine cannot reach.
	var procSeeds []*types.Func
	for fn := range g.decls {
		if engineReach[fn] {
			continue
		}
		sig := fn.Type().(*types.Signature)
		isProcFn := sig.Recv() != nil && typeIs(sig.Recv().Type(), "sim", "Proc")
		for i := 0; !isProcFn && i < sig.Params().Len(); i++ {
			isProcFn = typeIs(sig.Params().At(i).Type(), "sim", "Proc")
		}
		if isProcFn {
			procSeeds = append(procSeeds, fn)
		}
	}
	procReach := g.reach(procSeeds)

	// Rule 1: yielding calls from engine-only code. The root literals
	// themselves are engine context by construction; named functions
	// are checked without re-entering nested root literals (each is
	// visited once, as a root).
	flagYields := func(body ast.Node, skip map[*ast.FuncLit]bool) {
		inspectSkipping(body, skip, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if callee := calleeOf(info, call); isMethodOn(callee, "sim", "Proc", procOnlyMethods...) {
				pass.Reportf(call.Pos(),
					"Proc.%s yields or advances the local clock: it must run on the proc's body goroutine, but this call site is engine context (an event callback); use Wake/AddDebt/HandlerStart here",
					callee.Name())
			}
		})
	}
	for _, lit := range rootLits {
		nested := map[*ast.FuncLit]bool{}
		for l := range rootSet {
			if l != lit {
				nested[l] = true
			}
		}
		flagYields(lit.Body, nested)
	}
	for fn, decl := range g.decls {
		if engineReach[fn] && !procReach[fn] {
			flagYields(decl.Body, rootSet)
		}
	}

	// Rule 2: direct writes to engine-owned state from proc-only code.
	ownedType := func(t types.Type) string {
		switch {
		case typeIs(t, "sim", "Engine"):
			return "sim.Engine"
		case typeIs(t, "core", "duq"):
			return "core.duq"
		}
		return ""
	}
	for fn, decl := range g.decls {
		if !procReach[fn] || engineReach[fn] {
			continue
		}
		sig := fn.Type().(*types.Signature)
		recvOwned := sig.Recv() != nil && ownedType(sig.Recv().Type()) != ""
		if recvOwned {
			continue // the owning type's own methods are the sanctioned API
		}
		checkWrite := func(lhs ast.Expr) {
			// Unwrap element writes: d.member[k] = true is a write to
			// the member field just as much as d.queue = nil is.
			e := ast.Unparen(lhs)
			for {
				if ix, ok := e.(*ast.IndexExpr); ok {
					e = ast.Unparen(ix.X)
					continue
				}
				if st, ok := e.(*ast.StarExpr); ok {
					e = ast.Unparen(st.X)
					continue
				}
				break
			}
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if t, ok := info.Types[sel.X]; ok {
				if owned := ownedType(t.Type); owned != "" {
					pass.Reportf(lhs.Pos(),
						"direct write to %s field %s from proc-context code: engine-owned state must be mutated through its own methods (Engine.At/After, duq.add/remove/pop)",
						owned, sel.Sel.Name)
				}
			}
		}
		inspectSkipping(decl.Body, rootSet, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkWrite(lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(n.X)
			}
		})
	}
	return nil
}

// funcLitArg returns the function literal an argument passes, bare or
// converted to a func-typed adapter (msg.Func(func(...) {...})), or nil.
func funcLitArg(info *types.Info, a ast.Expr) *ast.FuncLit {
	a = ast.Unparen(a)
	if conv, ok := a.(*ast.CallExpr); ok && len(conv.Args) == 1 && info.Types[conv.Fun].IsType() {
		a = ast.Unparen(conv.Args[0])
	}
	lit, _ := a.(*ast.FuncLit)
	return lit
}

// handlerMethods returns the Deliver and Fire methods, declared in this
// package, of a record type handed to a scheduler: the methods the
// scheduler calls in engine context. An interface-typed argument names
// no record, and roots nothing.
func handlerMethods(pass *analysis.Pass, t types.Type) []*types.Func {
	if t == nil || types.IsInterface(t) {
		return nil
	}
	var out []*types.Func
	for _, name := range []string{"Deliver", "Fire"} {
		obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, name)
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() == pass.Pkg {
			out = append(out, fn)
		}
	}
	return out
}
