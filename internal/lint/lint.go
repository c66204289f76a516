package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mgs/internal/lint/analysis"
)

// All returns the full analyzer suite in stable order: the five
// intra-function analyzers first, then shardsafe, the interprocedural
// one layered on the call graph and cross-package facts.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoWallTime,
		NoGoroutine,
		MapRange,
		ChargeCost,
		EngineCtx,
		ShardSafe,
	}
}

// RunPackage applies every analyzer in All to one type-checked package
// and returns the surviving diagnostics sorted by position, plus the
// package's exported fact summary for dependents. imported resolves the
// facts of packages already analyzed (cmd/go runs the vettool in
// dependency order); nil means no cross-package facts are available.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info,
	imported func(path string) *analysis.PackageFacts) ([]analysis.Diagnostic, *analysis.PackageFacts, error) {
	al := ParseAllowList(fset, files)
	facts := ComputeFacts(fset, files, pkg, info, imported)
	var diags []analysis.Diagnostic
	var ran []string
	for _, a := range All() {
		pass := &analysis.Pass{
			Analyzer:      a,
			Fset:          fset,
			Files:         files,
			Pkg:           pkg,
			TypesInfo:     info,
			Facts:         facts,
			ImportedFacts: imported,
			Report:        func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, err
		}
		ran = append(ran, a.Name)
	}
	diags = al.Filter(diags, ran)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, facts, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers
// consult populated.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
