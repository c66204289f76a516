package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mgs/internal/lint/analysis"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoWallTime,
		NoGoroutine,
		MapRange,
	}
}

// RunPackage applies every analyzer in All to one type-checked package
// and returns the diagnostics sorted by position.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range All() {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
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
