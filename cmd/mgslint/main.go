// Command mgslint is the vet tool for the internal/lint analyzer suite
// (see DESIGN.md §"Static invariants"):
//
//	go build -o /tmp/mgslint ./cmd/mgslint
//	go vet -vettool=/tmp/mgslint ./...
//
// It speaks cmd/go's unitchecker protocol and nothing else: cmd/go
// probes the tool with -V=full (cache key) and -flags (accepted flags,
// none), then invokes it once per package, in dependency order, with a
// single *.cfg argument describing the compilation unit. Diagnostics go
// to stderr and the exit status is 2, matching
// golang.org/x/tools/go/analysis/unitchecker (which this reimplements
// on the standard library alone, because the module cache does not
// carry x/tools). Package loading, build caching and test files are
// all cmd/go's. The analyzers are package-local, so the facts file the
// protocol makes every unit write is always empty.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"mgs/internal/lint"
)

func main() {
	if len(os.Args) == 2 {
		switch arg := os.Args[1]; {
		case arg == "-V=full":
			printVersion()
			return
		case arg == "-flags":
			fmt.Println("[]") // the JSON flag inventory cmd/go may forward: none
			return
		case strings.HasSuffix(arg, ".cfg"):
			os.Exit(runVet(arg))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(command -v mgslint) ./...")
	os.Exit(2)
}

// inModule reports whether the import path (possibly a test variant
// like "mgs/internal/sim [mgs/internal/sim.test]") belongs to the mgs
// module — the only packages the analyzers check.
func inModule(path string) bool {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, ".test")
	return path == "mgs" || strings.HasPrefix(path, "mgs/")
}

// printVersion answers -V=full. cmd/go parses "<name> version <...>"
// and folds the whole line into its action cache key, so the hash of
// the executable itself is included: rebuilding mgslint invalidates
// cached vet results.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("mgslint version devel buildID=%x\n", h.Sum(nil))
}

// vetConfig is the compilation-unit description cmd/go writes to the
// *.cfg file (a subset of the fields; unknown ones are ignored).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVet(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgslint: %v\n", err)
		return 1
	}
	cfg := &vetConfig{}
	if err := json.Unmarshal(data, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mgslint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// cmd/go requires every unit's facts file to exist; the analyzers
	// export no facts, so it is empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "mgslint: %v\n", err)
			return 1
		}
	}
	// A unit outside the module, or one cmd/go visits only for the
	// facts its dependents need, has nothing to report.
	if cfg.VetxOnly || !inModule(cfg.ImportPath) {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return typecheckFailed(cfg, err)
		}
		files = append(files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := &mapImporter{
		importMap: cfg.ImportMap,
		gc: importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
			file, ok := cfg.PackageFile[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
	}
	info := lint.NewTypesInfo()
	conf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return typecheckFailed(cfg, err)
	}
	diags, err := lint.RunPackage(fset, files, pkg, info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgslint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// typecheckFailed handles parse/type errors under the protocol: when
// cmd/go knows the package is otherwise being compiled it sets
// SucceedOnTypecheckFailure so the compiler, not the vet tool, reports
// the error.
func typecheckFailed(cfg *vetConfig, err error) int {
	if cfg.SucceedOnTypecheckFailure {
		return 0
	}
	fmt.Fprintf(os.Stderr, "mgslint: %s: %v\n", cfg.ImportPath, err)
	return 1
}

// mapImporter resolves import paths through the unit's ImportMap
// (vendoring, test variants) before delegating to the gc importer's
// export-data lookup.
type mapImporter struct {
	importMap map[string]string
	gc        types.Importer
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if canon, ok := m.importMap[path]; ok {
		path = canon
	}
	return m.gc.Import(path)
}
