package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mgs/internal/lint/analysis"
)

// ShardSafe enforces the PR 6 parallel-engine sharing discipline.
// Once per-SSMP shards dispatch events concurrently, anything shared
// between shards must be one of: atomic (//mgs:atomic, touched only
// through sync/atomic), mutex-guarded (//mgs:guardedby mu, written only
// under mu.Lock() somewhere on the call path), or shard-pinned
// (//mgs:shardpinned, with an audited justification that only one
// shard's AtOn-pinned handlers ever touch it). The obs registry and the
// msync lock/barrier maps — the two spines PR 6 fixed by hand — carry
// the annotations; this analyzer re-proves the fixes on every build.
//
// Checks, from shard-dispatch roots (exported functions and methods of
// deterministic packages, callback literals scheduled via
// Engine.At/AtOn/AtSend/AtChoiceSend/After, Network.Send, Proc.Wake,
// and proc bodies handed to sim.NewProc):
//
//   - a write to a //mgs:guardedby field must have the guard held — a
//     mu.Lock() on the same struct type in the writing function or in
//     any caller on the path (the lock-instance approximation is by
//     type+field, documented in DESIGN.md §6). Functions that leave the
//     guard to their caller export the write as an Unguarded fact, so
//     cross-package callers are checked too;
//   - a plain (non-atomic) write to a //mgs:atomic field is flagged
//     wherever it appears;
//   - a write to any other field of a //mgs:shared struct outside
//     construction is flagged: annotate the field or guard the type;
//   - a write to a package-level var of a deterministic package outside
//     func init is flagged unless the var is internally synchronized
//     (sync.Pool / sync.Map / sync.Mutex / sync.Once / atomic types).
//
// Scheduled-callback literals do not inherit locks held where they were
// created: they run later, on their own shard, with nothing held.
var ShardSafe = &analysis.Analyzer{
	Name: "shardsafe",
	Doc:  "writes to shared state reachable from shard-dispatch roots must be atomic, mutex-guarded, or shard-pinned",
	Run:  runShardSafe,
}

// resEntry is one guarded-field write not discharged inside the
// function performing it: the caller must hold the guard.
type resEntry struct {
	pos     token.Pos
	typeKey string // "pkg/path.Type"
	field   string
	guard   string
	desc    string // "file:line: write to Type.field"
}

// shardNode is a unit of shard-safety analysis: a declared function or
// a scheduled-callback literal.
type shardNode struct {
	desc     string
	fn       *types.Func // nil for callback literals
	root     bool
	held     map[string]bool // "pkg/path.Type.guardField"
	own      []resEntry
	calls    []callSite
	residual map[string]resEntry // key: pos:type:field
}

func runShardSafe(pass *analysis.Pass) error {
	anns := annsFor(pass)
	for _, b := range anns.bad {
		pass.Reportf(b.pos, "%s", b.msg)
	}
	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}

	// Context-free checks over every body, literals included.
	checkContextFree(pass, anns)

	nodes := shardNodesFor(pass)

	// Diagnostics: residual entries of roots, deduplicated.
	reported := map[string]bool{}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].desc < nodes[j].desc })
	for _, sn := range nodes {
		if !sn.root {
			continue
		}
		var keys []string
		for k := range sn.residual {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if reported[k] {
				continue
			}
			reported[k] = true
			e := sn.residual[k]
			pass.Reportf(e.pos,
				"write to %s.%s (//mgs:guardedby %s) without %s.Lock() held on the path from %s: shard-dispatch may race; lock the guard or pin the write (%s)",
				shortTypeKey(e.typeKey), e.field, e.guard, e.guard, sn.desc, e.desc)
		}
	}
	return nil
}

// buildShardNodes assembles the shard-safety nodes for one package —
// declared functions plus scheduled-callback literals — and resolves
// the caller-must-guard residual of each to a fixpoint. Shared with
// ComputeFacts, which exports the residuals of exported functions.
func buildShardNodes(pass *analysis.Pass, anns *mgsAnnotations) []*shardNode {
	info := pass.TypesInfo

	// Scheduled-callback literals: separate roots, holding nothing.
	skip := map[*ast.FuncLit]bool{}
	var lits []*ast.FuncLit
	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(info, call)
			schedules := isMethodOn(callee, "sim", "Engine", "At", "AtOn", "AtSend", "AtChoiceSend", "After") ||
				isMethodOn(callee, "msg", "Network", "Send") ||
				isMethodOn(callee, "sim", "Proc", "Wake") ||
				(callee != nil && callee.Name() == "NewProc" && pkgIs(funcPkgPath(callee), "sim"))
			if !schedules {
				return true
			}
			for _, a := range call.Args {
				if lit, ok := a.(*ast.FuncLit); ok && !skip[lit] {
					skip[lit] = true
					lits = append(lits, lit)
				}
			}
			return true
		})
	}

	g := buildCallGraph(pass, skip)
	uni := typeUniverse(pass.Pkg)

	var nodes []*shardNode
	byFn := map[*types.Func]*shardNode{}
	called := map[*types.Func]bool{}
	for _, n := range g.nodes {
		for _, s := range n.sites {
			for _, t := range s.targets {
				if gn := g.node(t); gn != nil {
					called[gn.fn] = true
				}
			}
		}
	}
	for fn, cn := range g.nodes {
		sn := &shardNode{
			desc: describeFunc(fn),
			fn:   fn,
			root: fn.Exported() || !called[fn],
		}
		sn.held, sn.own = analyzeShardBody(pass, anns, cn.decl.Body, skip)
		sn.calls = cn.sites
		byFn[fn] = sn
		nodes = append(nodes, sn)
	}
	for _, lit := range lits {
		sn := &shardNode{
			desc: "scheduled callback at " + posString(pass.Fset, lit.Pos()),
			root: true,
		}
		sn.held, sn.own = analyzeShardBody(pass, anns, lit.Body, skip)
		tmp := &cgNode{}
		collectSites(info, lit.Body, skip, uni, tmp)
		sn.calls = tmp.sites
		nodes = append(nodes, sn)
	}
	for _, sn := range nodes {
		sn.residual = map[string]resEntry{}
		for _, e := range sn.own {
			if !sn.held[e.typeKey+"."+e.guard] {
				sn.residual[resEntryKey(e)] = e
			}
		}
	}

	// Propagate residuals up the call graph to a fixpoint: an entry a
	// callee leaves unguarded survives into each caller that does not
	// hold the guard either.
	for changed := true; changed; {
		changed = false
		for _, sn := range nodes {
			for _, site := range sn.calls {
				for _, t := range site.targets {
					var entries []resEntry
					if gn := g.node(t); gn != nil {
						for _, e := range byFn[gn.fn].residual {
							entries = append(entries, e)
						}
					} else if path := funcPkgPath(t); internalPkg(path) != "" || path == "mgs" {
						if fact := pass.FactsFor(path).Fact(funcID(t)); fact != nil {
							for _, u := range fact.Unguarded {
								entries = append(entries, resEntry{
									pos: site.pos, typeKey: u.Type, field: u.Field, guard: u.Guard,
									desc: u.Desc + " (via " + describeFunc(t) + ")",
								})
							}
						}
					}
					for _, e := range entries {
						if sn.held[e.typeKey+"."+e.guard] {
							continue
						}
						k := resEntryKey(e)
						if _, ok := sn.residual[k]; !ok {
							sn.residual[k] = e
							changed = true
						}
					}
				}
			}
		}
	}
	return nodes
}

func resEntryKey(e resEntry) string {
	return fmt.Sprintf("%d:%s.%s", e.pos, e.typeKey, e.field)
}

func shortTypeKey(k string) string {
	for i := len(k) - 1; i >= 0; i-- {
		if k[i] == '/' {
			return k[i+1:]
		}
	}
	return k
}

func posString(fset *token.FileSet, p token.Pos) string {
	pos := fset.Position(p)
	return fmt.Sprintf("%s:%d", shortFile(pos.Filename), pos.Line)
}

// analyzeShardBody collects the locks a body acquires and its own
// guarded-field writes (construction-exempt), not descending into
// scheduled-callback literals.
func analyzeShardBody(pass *analysis.Pass, anns *mgsAnnotations, body ast.Node, skip map[*ast.FuncLit]bool) (held map[string]bool, own []resEntry) {
	info := pass.TypesInfo
	held = map[string]bool{}
	inspectSkipping(body, skip, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if tk, guard, ok := lockAcquisition(info, call); ok {
				held[tk+"."+guard] = true
			}
		}
	})
	record := func(lhs ast.Expr) {
		sel, T, field := fieldWrite(info, lhs)
		if sel == nil {
			return
		}
		ff, _ := fieldAnnFor(pass, anns, T, field)
		if ff == nil || ff.Kind != "guardedby" {
			return
		}
		if locallyConstructed(info, body, sel.X) {
			return
		}
		tk := typeKeyOf(T)
		pos := pass.Fset.Position(lhs.Pos())
		own = append(own, resEntry{
			pos: lhs.Pos(), typeKey: tk, field: field, guard: ff.Arg,
			desc: fmt.Sprintf("%s:%d: write to %s.%s", shortFile(pos.Filename), pos.Line, T.Obj().Name(), field),
		})
	}
	inspectSkipping(body, skip, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(s.X)
		case *ast.CallExpr:
			// delete(m.locks, k) mutates the guarded map too.
			if isBuiltin(info, s, "delete") && len(s.Args) > 0 {
				record(s.Args[0])
			}
		}
	})
	return held, own
}

// checkContextFree reports the checks that need no path reasoning:
// plain writes to atomic fields, writes to unannotated fields of
// //mgs:shared structs, and package-level var writes.
func checkContextFree(pass *analysis.Pass, anns *mgsAnnotations) {
	info := pass.TypesInfo
	for _, f := range sourceFiles(pass) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			isInit := fd.Name.Name == "init" && fd.Recv == nil
			checkWrite := func(lhs ast.Expr) {
				if sel, T, field := fieldWrite(info, lhs); sel != nil {
					ff, shared := fieldAnnFor(pass, anns, T, field)
					switch {
					case ff != nil && ff.Kind == "atomic":
						pass.Reportf(lhs.Pos(),
							"plain write to //mgs:atomic field %s.%s: use sync/atomic, other shards read it concurrently",
							T.Obj().Name(), field)
					case ff == nil && shared && !locallyConstructed(info, fd.Body, sel.X):
						pass.Reportf(lhs.Pos(),
							"write to unannotated field %s.%s of //mgs:shared struct outside construction: annotate it //mgs:guardedby/atomic/shardpinned or stop sharing it",
							T.Obj().Name(), field)
					}
					return
				}
				if isInit {
					return
				}
				if v := pkgLevelVar(info, pass.Pkg, lhs); v != nil && !syncedType(v.Type()) {
					pass.Reportf(lhs.Pos(),
						"write to package-level var %s from a deterministic package: shard-dispatch may race; make it per-SSMP state, guard it, or move the write into func init",
						v.Name())
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						checkWrite(lhs)
					}
				case *ast.IncDecStmt:
					checkWrite(s.X)
				}
				return true
			})
		}
	}
}

// lockAcquisition matches base.<guardField>.Lock() where guardField is
// a sync.Mutex/RWMutex field of a named struct, returning the struct's
// type key and the field name.
func lockAcquisition(info *types.Info, call *ast.CallExpr) (typeKey, guard string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Lock" {
		return "", "", false
	}
	muSel, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	muTV, okT := info.Types[muSel]
	if !okT || !isMutexType(muTV.Type) {
		return "", "", false
	}
	baseTV, okT := info.Types[muSel.X]
	if !okT {
		return "", "", false
	}
	T := namedType(baseTV.Type)
	if T == nil {
		return "", "", false
	}
	return typeKeyOf(T), muSel.Sel.Name, true
}

// fieldWrite unwraps an assignment target (through indexes, stars,
// parens) to a struct-field selector, returning the selector, the
// owning named type, and the field name.
func fieldWrite(info *types.Info, lhs ast.Expr) (*ast.SelectorExpr, *types.Named, string) {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, nil, ""
	}
	if _, isField := info.Uses[sel.Sel].(*types.Var); !isField {
		return nil, nil, ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil, nil, ""
	}
	T := namedType(tv.Type)
	if T == nil {
		return nil, nil, ""
	}
	if _, isStruct := T.Underlying().(*types.Struct); !isStruct {
		return nil, nil, ""
	}
	return sel, T, sel.Sel.Name
}

// fieldAnnFor resolves a field annotation from the current package's
// annotations or an imported package's facts. shared reports whether
// the owning type is //mgs:shared.
func fieldAnnFor(pass *analysis.Pass, anns *mgsAnnotations, T *types.Named, field string) (ff *analysis.FieldFact, shared bool) {
	if T == nil || T.Obj().Pkg() == nil {
		return nil, false
	}
	if T.Obj().Pkg() == pass.Pkg {
		if f := anns.sharedFact(T); f != nil {
			return f.Fields[field], f.Shared
		}
		return nil, false
	}
	path := canonicalPath(T.Obj().Pkg().Path())
	if f := pass.FactsFor(path).SharedType(T.Obj().Name()); f != nil {
		return f.Fields[field], f.Shared
	}
	return nil, false
}

// typeKeyOf renders a named type as "pkg/path.Name".
func typeKeyOf(T *types.Named) string {
	if T.Obj().Pkg() == nil {
		return T.Obj().Name()
	}
	return canonicalPath(T.Obj().Pkg().Path()) + "." + T.Obj().Name()
}

// locallyConstructed reports whether base resolves to a variable
// declared inside body: writes that initialize a value before it is
// published are construction, not sharing.
func locallyConstructed(info *types.Info, body ast.Node, base ast.Expr) bool {
	obj := rootObj(info, base)
	if obj == nil {
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Pos() >= body.Pos() && v.Pos() < body.End()
}

// pkgLevelVar resolves an assignment target to a package-level variable
// of pkg, or nil.
func pkgLevelVar(info *types.Info, pkg *types.Package, lhs ast.Expr) *types.Var {
	obj := rootObj(info, lhs)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() != pkg {
		return nil
	}
	if v.Parent() != pkg.Scope() {
		return nil
	}
	return v
}

// syncedType reports whether t is internally synchronized: the sync and
// sync/atomic types guard themselves.
func syncedType(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}
