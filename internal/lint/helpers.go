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

// namedType dereferences pointers and returns t's named type, or nil.
func namedType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// typeIs reports whether t (possibly behind a pointer) is the named
// type pkgName.typeName, where pkgName is matched as internal/<pkgName>
// so fixture packages under testdata classify like the real ones.
func typeIs(t types.Type, pkgName, typeName string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == typeName && pkgIs(n.Obj().Pkg().Path(), pkgName)
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

// isMethodOn reports whether f is a method named one of names on the
// named type pkgName.typeName.
func isMethodOn(f *types.Func, pkgName, typeName string, names ...string) bool {
	if f == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !typeIs(sig.Recv().Type(), pkgName, typeName) {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
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

// funcGraph is a same-package call graph over declared functions and
// methods; function literals are folded into their enclosing
// declaration.
type funcGraph struct {
	decls map[*types.Func]*ast.FuncDecl
	calls map[*types.Func][]*types.Func // same-package callees only
}

// buildFuncGraph collects every declared function of the pass's
// non-test files and the same-package calls each makes (including calls
// made inside nested function literals).
func buildFuncGraph(pass *analysis.Pass) *funcGraph {
	g := &funcGraph{
		decls: map[*types.Func]*ast.FuncDecl{},
		calls: map[*types.Func][]*types.Func{},
	}
	for _, f := range sourceFiles(pass) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[obj] = fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeOf(pass.TypesInfo, call); callee != nil && callee.Pkg() == pass.Pkg {
						g.calls[obj] = append(g.calls[obj], callee)
					}
				}
				return true
			})
		}
	}
	return g
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
