// Package analysis is a minimal, dependency-free stand-in for
// golang.org/x/tools/go/analysis: just enough surface (Analyzer, Pass,
// Diagnostic) to write vet-style static checks against go/ast +
// go/types. The repository must build with an empty module cache, so
// vendoring x/tools is not an option; the drivers (cmd/mgslint and
// internal/lint/analysistest) supply the package loading that x/tools
// would otherwise provide.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces
	// and why.
	Doc string

	// Run applies the analyzer to one package. It reports findings via
	// pass.Report / pass.Reportf and returns an error only for internal
	// failures (not for findings).
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic. Drivers set it; analyzers usually
	// call Reportf instead.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}
