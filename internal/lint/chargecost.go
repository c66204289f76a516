package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"mgs/internal/lint/analysis"
)

// ChargeCost flags protocol handlers and send paths that can complete
// without charging simulated cycles. MGS's software protocol engines
// are cycle-accounted: every handler entry, lock operation, twin copy,
// diff scan, and message launch costs virtual time drawn from the Costs
// tables. A handler that updates protocol state but never touches a
// cost — directly or through any same-package callee — executes "for
// free", which silently deflates the very overheads the reproduction
// exists to measure.
//
// Scope: internal/core and internal/msg. A function is a candidate if
// it is exported with a *sim.Proc or sim.Time parameter (the public
// timed API), or unexported with one of the handler/send-path name
// prefixes (on, send, serve, dispatch, reply, finish) and such a
// parameter. Functions that *return* sim.Time are exempt: they are
// cost producers — the duration or deadline they compute is the
// charge, landed by the caller (Network.Latency, Topology.Arrive,
// Occupancy.Cross) — so auditing them for charges would be reading
// the rule backwards. Message handlers (Deliver(sim.Time), msg.Handler's
// method) are exempt too: only a delivery calls one, after charging
// the handler entry and the sender's extra work, and the on* handlers a
// Deliver dispatches to are audited at their own declarations. A
// candidate must transitively reach at least one charge:
// a read of a Costs field, Proc.Advance/Sleep/AddDebt/HandlerStart,
// Network.Send/SendTagged/Extend/Latency, Engine.After, or Engine.At
// with a time offset (At with a bare time value merely reschedules).
//
// For internal/obs the rule inverts: the observability spine's
// contract is that emission costs zero simulated cycles — a trace,
// metric, or profile must never perturb the run it observes. Any
// function in obs that charges (directly or through a function
// literal) is a diagnostic.
var ChargeCost = &analysis.Analyzer{
	Name: "chargecost",
	Doc:  "flag protocol handlers and send paths that never charge simulated cycles (and obs emission paths that do)",
	Run:  runChargeCost,
}

var handlerPrefixes = []string{"on", "send", "serve", "dispatch", "reply", "finish"}

func runChargeCost(pass *analysis.Pass) error {
	if !scopeChargeCost(pass.Pkg.Path()) {
		return nil
	}
	if pkgIs(pass.Pkg.Path(), "obs") {
		return runChargeCostInverted(pass)
	}
	g := buildFuncGraph(pass)

	charges := map[*types.Func]bool{}
	for fn, decl := range g.decls {
		charges[fn] = chargesDirectly(pass, decl.Body)
	}

	// Transitive closure over the same-package call graph.
	memo := map[*types.Func]int{} // 0 unknown, 1 visiting, 2 done
	var chargesTransitively func(fn *types.Func) bool
	chargesTransitively = func(fn *types.Func) bool {
		if charges[fn] {
			return true
		}
		if memo[fn] != 0 {
			return false // cycle or already settled without a charge
		}
		memo[fn] = 1
		for _, callee := range g.calls[fn] {
			if chargesTransitively(callee) {
				charges[fn] = true
				return true
			}
		}
		return false
	}

	for fn, decl := range g.decls {
		memo = map[*types.Func]int{}
		if !isChargeCandidate(fn, decl) {
			continue
		}
		if !chargesTransitively(fn) {
			pass.Reportf(decl.Name.Pos(),
				"%s is a protocol handler/send path but no path through it charges simulated cycles (no Costs read, Advance/AddDebt/HandlerStart, Send/Extend, or offset At/After); the work it models executes for free",
				fn.Name())
		}
	}
	return nil
}

// runChargeCostInverted enforces the observability spine's zero-cost
// contract: no function in internal/obs may charge simulated cycles.
// The transitive closure is unnecessary here — a charge anywhere in the
// package is a violation at the function that contains it.
func runChargeCostInverted(pass *analysis.Pass) error {
	g := buildFuncGraph(pass)
	for fn, decl := range g.decls {
		if chargesDirectly(pass, decl.Body) {
			pass.Reportf(decl.Name.Pos(),
				"%s is an obs emission path but charges simulated cycles (Advance/AddDebt/HandlerStart, Send/Extend, or offset At/After); observability must cost zero virtual time",
				fn.Name())
		}
	}
	return nil
}

// isChargeCandidate reports whether fn is on the timed protocol surface
// this analyzer audits.
func isChargeCandidate(fn *types.Func, decl *ast.FuncDecl) bool {
	sig := fn.Type().(*types.Signature)
	timed := false
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if typeIs(t, "sim", "Proc") || typeIs(t, "sim", "Time") {
			timed = true
			break
		}
	}
	if !timed || isDeliver(fn) {
		return false
	}
	// Cost producers return the time they model; their call sites carry
	// the charge.
	for i := 0; i < sig.Results().Len(); i++ {
		if typeIs(sig.Results().At(i).Type(), "sim", "Time") {
			return false
		}
	}
	if fn.Exported() {
		return true
	}
	for _, p := range handlerPrefixes {
		if strings.HasPrefix(fn.Name(), p) {
			return true
		}
	}
	return false
}

// isDeliver reports whether fn is a message handler: a method with
// msg.Handler's signature, Deliver(sim.Time).
func isDeliver(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && fn.Name() == "Deliver" && sig.Results().Len() == 0 &&
		sig.Params().Len() == 1 && typeIs(sig.Params().At(0).Type(), "sim", "Time")
}

// chargesDirectly reports whether the body (including nested function
// literals) contains a direct cycle charge.
func chargesDirectly(pass *analysis.Pass, body *ast.BlockStmt) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Reading a field of a Costs table (core.Costs or
			// msg.Costs): the value read is a cycle count that flows
			// into an Advance/Extend/Send somewhere.
			if t, ok := info.Types[n.X]; ok {
				if typeIs(t.Type, "core", "Costs") || typeIs(t.Type, "msg", "Costs") {
					found = true
				}
			}
		case *ast.CallExpr:
			callee := calleeOf(info, n)
			switch {
			case isMethodOn(callee, "sim", "Proc", "Advance", "Sleep", "AddDebt", "HandlerStart"):
				found = true
			case isMethodOn(callee, "msg", "Network", "Send", "SendTagged", "Extend", "Latency"):
				found = true
			case isMethodOn(callee, "sim", "Engine", "After"):
				found = true
			case isMethodOn(callee, "sim", "Engine", "At"):
				// Only an At that *adds* time is a charge; At(at, fn)
				// with a bare time just sequences at the current cost.
				if len(n.Args) > 0 {
					if _, isOffset := ast.Unparen(n.Args[0]).(*ast.BinaryExpr); isOffset {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}
