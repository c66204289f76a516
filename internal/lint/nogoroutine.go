package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mgs/internal/lint/analysis"
)

// NoGoroutine forbids second stacks and channels in deterministic
// packages (plus internal/harness): go statements, iter.Pull coroutines
// and every channel operation. Exactly one thing runs at a time in a
// simulation because a processor body is a coroutine the engine
// switches to and from directly; the one iter.Pull that creates it
// (sim.Proc.Fire) and the harness sweep worker pool's spawn are the only
// sanctioned sites, each annotated with //mgslint:allow. A
// coroutine is reported like a go statement: it never reaches the
// scheduler, but code that can suspend mid-function is exactly what the
// engine/processor context split exists to contain. Any other
// goroutine or channel operation hands event ordering to the Go
// scheduler and breaks bit-for-bit reproducibility.
var NoGoroutine = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "forbid go statements, iter.Pull coroutines and channel operations in deterministic packages " +
		"outside the annotated processor-coroutine and sweep-pool sites",
	Run: runNoGoroutine,
}

func runNoGoroutine(pass *analysis.Pass) error {
	if !scopeNoGoroutine(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement hands scheduling to the Go runtime in deterministic package %s; only the sweep worker pool may spawn", pass.Pkg.Path())
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send in a deterministic package: channel ordering is scheduler-dependent")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive in a deterministic package: channel ordering is scheduler-dependent")
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement: case choice is scheduler- and timing-dependent")
			case *ast.RangeStmt:
				if t, ok := info.Types[n.X]; ok {
					if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(), "range over channel: receive ordering is scheduler-dependent")
					}
				}
			case *ast.CallExpr:
				if f := calleeOf(info, n); f != nil && funcPkgPath(f) == "iter" && (f.Name() == "Pull" || f.Name() == "Pull2") {
					pass.Reportf(n.Pos(), "iter.%s starts a coroutine, a second stack, in deterministic package %s; only sim.Proc's body may run on one", f.Name(), pass.Pkg.Path())
					return true
				}
				id, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				switch id.Name {
				case "make":
					if t, ok := info.Types[n]; ok {
						if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
							pass.Reportf(n.Pos(), "make(chan ...) in a deterministic package: channels introduce scheduler-visible communication")
						}
					}
				case "close":
					if len(n.Args) == 1 {
						if t, ok := info.Types[n.Args[0]]; ok {
							if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
								pass.Reportf(n.Pos(), "close of channel in a deterministic package")
							}
						}
					}
				}
			}
			return true
		})
	}
	return nil
}
