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
// switches to and from directly; the functions in sanctionedSites are
// the only places one may be started. A coroutine is reported like a go
// statement: it never reaches the scheduler, but code that can suspend
// mid-function is exactly what the engine/processor context split
// exists to contain. Any other goroutine or channel operation hands
// event ordering to the Go scheduler and breaks bit-for-bit
// reproducibility.
var NoGoroutine = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "forbid go statements, iter.Pull coroutines and channel operations in deterministic packages " +
		"outside the sanctioned processor-coroutine and sweep-pool functions",
	Run: runNoGoroutine,
}

// sanctionedSites names, as siteName spells them, the functions whose
// bodies nogoroutine does not report, each with why that is sound. A
// function listed here in which nothing would be reported is itself a
// diagnostic, so the list cannot outlive the code it excuses.
var sanctionedSites = map[string]bool{
	// The one second stack in sim: the iter.Pull that makes a processor
	// body a coroutine, entered and left only by direct switches
	// (next/suspend), never scheduled.
	"sim.(*Proc).Fire": true,
	// The sweep worker pool: each worker goroutine runs whole
	// single-threaded simulations and results land in caller-indexed
	// slots, so completion order is invisible.
	"harness.RunIndexed": true,
}

// siteName spells a function declaration the way sanctionedSites does
// — internal-relative package, receiver type if any, name — and any
// other declaration as "".
func siteName(pkgPath string, decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	name := internalPkg(pkgPath) + "."
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		name += "(" + types.ExprString(fd.Recv.List[0].Type) + ")."
	}
	return name + fd.Name.Name
}

func runNoGoroutine(pass *analysis.Pass) error {
	if !scopeNoGoroutine(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range sourceFiles(pass) {
		for _, decl := range f.Decls {
			site := siteName(pass.Pkg.Path(), decl)
			if !sanctionedSites[site] {
				checkNoGoroutine(pass, decl, pass.Reportf)
				continue
			}
			excused := 0
			checkNoGoroutine(pass, decl, func(token.Pos, string, ...any) { excused++ })
			if excused == 0 {
				pass.Reportf(decl.Pos(), "%s is in nogoroutine's sanctionedSites but starts no goroutine or coroutine and touches no channel; remove it from the list", site)
			}
		}
	}
	return nil
}

// checkNoGoroutine reports every forbidden construct under root.
func checkNoGoroutine(pass *analysis.Pass, root ast.Node, report func(pos token.Pos, format string, args ...any)) {
	info := pass.TypesInfo
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement hands scheduling to the Go runtime in deterministic package %s; only the sweep worker pool may spawn", pass.Pkg.Path())
		case *ast.SendStmt:
			report(n.Pos(), "channel send in a deterministic package: channel ordering is scheduler-dependent")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive in a deterministic package: channel ordering is scheduler-dependent")
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select statement: case choice is scheduler- and timing-dependent")
		case *ast.RangeStmt:
			if t, ok := info.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					report(n.Pos(), "range over channel: receive ordering is scheduler-dependent")
				}
			}
		case *ast.CallExpr:
			if f := calleeOf(info, n); f != nil && funcPkgPath(f) == "iter" && (f.Name() == "Pull" || f.Name() == "Pull2") {
				report(n.Pos(), "iter.%s starts a coroutine, a second stack, in deterministic package %s; only sim.Proc's body may run on one", f.Name(), pass.Pkg.Path())
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
						report(n.Pos(), "make(chan ...) in a deterministic package: channels introduce scheduler-visible communication")
					}
				}
			case "close":
				if len(n.Args) == 1 {
					if t, ok := info.Types[n.Args[0]]; ok {
						if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
							report(n.Pos(), "close of channel in a deterministic package")
						}
					}
				}
			}
		}
		return true
	})
}
