package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mgs/internal/lint/analysis"
)

// The interprocedural layer: a class-hierarchy-analysis (CHA) call
// graph over go/types. Static calls resolve to their *types.Func;
// interface-method calls expand to every scope-visible named type whose
// method set satisfies the interface (the CHA over-approximation —
// sound for "no target may allocate" style checks, pinned by the
// callgraph fixtures); method-value expressions add edges too, since
// the bound method may run later. Function literals fold into their
// enclosing declaration except literals an analyzer treats as separate
// roots (scheduled callbacks).

// funcID returns the canonical fact key for f: "Name" for package
// functions, "(Recv).Name" for methods with any pointer receiver
// unwrapped, so every unit's JSON fact file agrees.
func funcID(f *types.Func) string {
	if o := f.Origin(); o != nil {
		f = o
	}
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			return "(" + n.Obj().Name() + ")." + f.Name()
		}
	}
	return f.Name()
}

// funcPkgPath returns the canonical import path defining f, or "".
func funcPkgPath(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	return canonicalPath(f.Pkg().Path())
}

// callSite is one resolved call (or method-value) inside a function
// body. Calls through function values resolve to nothing and are not
// recorded.
type callSite struct {
	pos     token.Pos
	targets []*types.Func // resolved callees (1 static, N for CHA)
}

// cgNode is one declared function and everything callable from it.
type cgNode struct {
	fn    *types.Func
	decl  *ast.FuncDecl
	sites []callSite
}

// callGraph spans one package's declarations, with targets possibly in
// other packages.
type callGraph struct {
	nodes map[*types.Func]*cgNode
	byID  map[string]*types.Func // same-package canonical ID → fn
}

// node returns the graph node for fn, or nil (foreign or undeclared).
func (g *callGraph) node(fn *types.Func) *cgNode {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return g.nodes[fn]
}

// buildCallGraph constructs the package's call graph. Literals in skip
// are not folded into their enclosing declaration. The type universe
// for interface dispatch spans the package's own scope plus the scopes
// of its module-internal imports.
func buildCallGraph(pass *analysis.Pass, skip map[*ast.FuncLit]bool) *callGraph {
	g := &callGraph{
		nodes: map[*types.Func]*cgNode{},
		byID:  map[string]*types.Func{},
	}
	uni := typeUniverse(pass.Pkg)
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
			n := &cgNode{fn: obj, decl: fd}
			collectSites(pass.TypesInfo, fd.Body, skip, uni, n)
			g.nodes[obj] = n
			g.byID[funcID(obj)] = obj
		}
	}
	return g
}

// typeUniverse gathers every named type with methods visible from pkg:
// the package's own scope (exported and not) and the exported scopes of
// its module-internal imports. Types outside the module cannot carry
// //mgs annotations and their methods resolve through the stdlib
// whitelist instead, so they are deliberately excluded.
func typeUniverse(pkg *types.Package) []*types.Named {
	var out []*types.Named
	add := func(p *types.Package) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.NumMethods() > 0 {
				out = append(out, n)
			}
		}
	}
	add(pkg)
	for _, imp := range pkg.Imports() {
		if internalPkg(imp.Path()) != "" || imp.Path() == "mgs" {
			add(imp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Obj().Pkg().Path()+"."+out[i].Obj().Name() <
			out[j].Obj().Pkg().Path()+"."+out[j].Obj().Name()
	})
	return out
}

// collectSites walks body recording every call site and method value,
// skipping literals in skip.
func collectSites(info *types.Info, body ast.Node, skip map[*ast.FuncLit]bool, uni []*types.Named, n *cgNode) {
	calledFuns := map[ast.Expr]bool{}
	inspectSkipping(body, skip, func(node ast.Node) {
		switch e := node.(type) {
		case *ast.CallExpr:
			calledFuns[ast.Unparen(e.Fun)] = true
			if site, ok := resolveCall(info, e, uni); ok {
				n.sites = append(n.sites, site)
			}
		case *ast.SelectorExpr:
			// A method value (x.M not immediately called) binds the
			// receiver: the method may run later, so it is an edge.
			if calledFuns[e] {
				return
			}
			sel, ok := info.Selections[e]
			if !ok || sel.Kind() != types.MethodVal {
				return
			}
			if f, ok := sel.Obj().(*types.Func); ok {
				n.sites = append(n.sites, callSite{pos: e.Pos(), targets: methodTargets(f, sel.Recv(), uni)})
			}
		}
	})
}

// resolveCall resolves one call expression to its targets. Conversions,
// builtins, and calls through function values are not call sites.
func resolveCall(info *types.Info, call *ast.CallExpr, uni []*types.Named) (callSite, bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return callSite{}, false // conversion
	}
	if id, ok := fun.(*ast.Ident); ok {
		if f, ok := info.Uses[id].(*types.Func); ok {
			return callSite{pos: call.Pos(), targets: []*types.Func{f}}, true
		}
		return callSite{}, false // builtin, or a function-typed variable
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			f, _ := s.Obj().(*types.Func)
			if f == nil {
				return callSite{}, false
			}
			return callSite{pos: call.Pos(), targets: methodTargets(f, s.Recv(), uni)}, true
		}
		// Package-qualified function (a field of function type resolves
		// to nothing).
		if f, ok := info.Uses[sel.Sel].(*types.Func); ok {
			return callSite{pos: call.Pos(), targets: []*types.Func{f}}, true
		}
	}
	return callSite{}, false
}

// methodTargets resolves a method call or value: a concrete receiver
// yields its one method; an interface receiver expands by CHA to the
// corresponding concrete method of every universe type satisfying the
// interface.
func methodTargets(f *types.Func, recv types.Type, uni []*types.Named) []*types.Func {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok || iface.Empty() {
		return []*types.Func{f}
	}
	var out []*types.Func
	seen := map[*types.Func]bool{}
	for _, n := range uni {
		impl := types.NewPointer(n)
		if !types.Implements(impl, iface) && !types.Implements(n, iface) {
			continue
		}
		ms := types.NewMethodSet(impl)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i)
			if mf, ok := m.Obj().(*types.Func); ok && mf.Name() == f.Name() && !seen[mf] {
				seen[mf] = true
				out = append(out, mf)
			}
		}
	}
	if len(out) == 0 {
		// No visible implementation: keep the interface method itself so
		// callers treat the site as unresolved-but-typed.
		return []*types.Func{f}
	}
	return out
}

// describeFunc renders f for diagnostics: "pkg.Name" or
// "pkg.(Type).Name" with the module prefix trimmed.
func describeFunc(f *types.Func) string {
	p := funcPkgPath(f)
	p = strings.TrimPrefix(p, "mgs/internal/")
	p = strings.TrimPrefix(p, "mgs/")
	if p == "" {
		return funcID(f)
	}
	return p + "." + funcID(f)
}
