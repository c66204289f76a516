package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mgs/internal/lint/analysis"
)

// ComputeFacts summarizes one type-checked package for cross-package
// analysis: the caller-must-guard writes of every declared function,
// plus the //mgs:shared annotation summaries of its types. cmd/go runs
// the vettool in dependency order and threads the result to dependents
// through .vetx files; imported resolves the facts of packages already
// analyzed. Only functions that leave a write for their caller to
// guard get an entry.
func ComputeFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info,
	imported func(path string) *analysis.PackageFacts) *analysis.PackageFacts {
	pass := &analysis.Pass{
		Fset:          fset,
		Files:         files,
		Pkg:           pkg,
		TypesInfo:     info,
		ImportedFacts: imported,
	}
	anns := annsFor(pass)
	shards := shardNodesFor(pass)

	pf := &analysis.PackageFacts{
		Path:  canonicalPath(pkg.Path()),
		Funcs: map[string]*analysis.FuncFact{},
	}
	for _, sn := range shards {
		if sn.fn == nil || len(sn.residual) == 0 {
			continue // callback literals are not callable cross-package; no residual, no fact
		}
		ff := &analysis.FuncFact{}
		pf.Funcs[funcID(sn.fn)] = ff
		var keys []string
		for k := range sn.residual {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e := sn.residual[k]
			ff.Unguarded = append(ff.Unguarded, analysis.UnguardedWrite{
				Type: e.typeKey, Field: e.field, Guard: e.guard, Desc: e.desc,
			})
		}
	}
	if len(anns.shared) > 0 {
		pf.SharedTypes = map[string]*analysis.SharedTypeFact{}
		for T, f := range anns.shared {
			pf.SharedTypes[T.Obj().Name()] = f
		}
	}
	return pf
}
