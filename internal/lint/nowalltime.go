package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"mgs/internal/lint/analysis"
)

// NoWallTime forbids the host-dependent value sources — wall-clock
// time, process-global randomness, pointer values — in deterministic
// packages and in the host-side packages whose output is promised
// reproducible (see scopeSourceBans). Simulated code must take its
// notion of time from sim.Time (Engine.Now, Proc.Clock) and its
// randomness from explicitly seeded generators
// (rand.New(rand.NewSource(seed)) or the repo's xorshift idiom), and
// must never turn an address into a number (uintptr(unsafe.Pointer(x)),
// the %p verb); anything else couples simulated results to the host,
// and every sweep CSV silently stops being reproducible.
var NoWallTime = &analysis.Analyzer{
	Name: "nowalltime",
	Doc: "forbid time.Now/Since/Sleep, global math/rand, uintptr(unsafe.Pointer) and %p in deterministic packages; " +
		"virtual time and seeded generators only",
	Run: runNoWallTime,
}

// wallClockFuncs are the package time functions that read the host
// clock or host timers. Pure types and arithmetic (time.Duration,
// time.Time values passed in from the host side) stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandFuncs are the math/rand constructors that produce an
// explicitly seeded generator; everything else at package level draws
// from the process-global source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNoWallTime(pass *analysis.Pass) error {
	if !scopeSourceBans(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkPointerValue(pass, call)
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch pkgNameOf(pass.TypesInfo, sel) {
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the host clock or scheduler: forbidden in deterministic package %s (use sim.Time via Engine.Now/Proc.Clock)",
						sel.Sel.Name, pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFunc && !seededRandFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"global rand.%s draws from the process-wide source: forbidden in deterministic package %s (use rand.New(rand.NewSource(seed)))",
						sel.Sel.Name, pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}

// checkPointerValue flags the two ways an address becomes data: the
// conversion uintptr(unsafe.Pointer(x)) and a fmt call whose constant
// format string carries the %p verb. Addresses differ run to run.
func checkPointerValue(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		if isBasicKind(tv.Type, types.Uintptr) && isBasicKind(info.TypeOf(call.Args[0]), types.UnsafePointer) {
			pass.Reportf(call.Pos(),
				"uintptr(unsafe.Pointer) turns an address into a value: forbidden in deterministic package %s (addresses differ run to run)",
				pass.Pkg.Path())
		}
		return
	}
	if f := calleeOf(info, call); f != nil && funcPkgPath(f) == "fmt" && formatUsesPointerVerb(info, call) {
		pass.Reportf(call.Pos(),
			"fmt.%s with %%p prints an address: forbidden in deterministic package %s (addresses differ run to run)",
			f.Name(), pass.Pkg.Path())
	}
}

func isBasicKind(t types.Type, kind types.BasicKind) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

// formatUsesPointerVerb reports whether a fmt call's constant format
// string contains %p.
func formatUsesPointerVerb(info *types.Info, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if tv, ok := info.Types[a]; ok && tv.Value != nil && isStringType(tv.Type) {
			if strings.Contains(tv.Value.ExactString(), "%p") {
				return true
			}
		}
	}
	return false
}
