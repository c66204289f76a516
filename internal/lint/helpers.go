package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mgs/internal/lint/analysis"
)

// isTestFile reports whether the file is a _test.go file. The analyzers
// check only shipping simulator code; tests drive the simulator from
// the host side and legitimately use seeded rand, goroutines, etc.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// sourceFiles returns the non-test files of the pass.
func sourceFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		if !isTestFile(pass.Fset, f) {
			out = append(out, f)
		}
	}
	return out
}

// calleeOf resolves the *types.Func a call expression invokes (method
// or plain function), or nil for builtins, conversions, and calls of
// function-typed values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) { // an explicit instantiation: f[T](...)
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcPkgPath returns the canonical import path defining f, or "".
func funcPkgPath(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	return canonicalPath(f.Pkg().Path())
}

// pkgNameOf resolves a selector's base to an imported package path, or
// "" if the base is not a package identifier.
func pkgNameOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isIntegerType reports whether t's underlying type is an integer.
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isStringType reports whether t's underlying type is a string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
