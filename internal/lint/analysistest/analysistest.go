// Package analysistest runs one analyzer over golden fixture packages
// and checks its diagnostics against `// want` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest (which the module cache
// does not carry).
//
// Fixtures live under a root directory laid out like a GOPATH src tree:
// root/src/<import/path>/*.go. Fixture packages may import each other
// (resolved inside the tree) and the standard library (type-checked
// from GOROOT source via go/importer's "source" mode). A comment
//
//	// want "regexp" "another"
//
// on a line asserts that each quoted pattern matches the message of a
// diagnostic reported on that line; diagnostics without a matching want
// and wants without a matching diagnostic both fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mgs/internal/lint"
	"mgs/internal/lint/analysis"
)

// Run loads each named fixture package from root/src and applies a to
// it, comparing diagnostics against the package's // want comments.
func Run(t *testing.T, root string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := &loader{
		root: filepath.Join(root, "src"),
		fset: token.NewFileSet(),
		pkgs: map[string]*fixturePkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, path := range pkgPaths {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		check(t, l, a, p)
	}
}

type fixturePkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*fixturePkg
}

// Import lets the loader serve as the types.Importer for fixture
// type-checking: fixture-tree packages resolve recursively, everything
// else falls through to the GOROOT source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.root, path)); err == nil {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*fixturePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := lint.NewTypesInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &fixturePkg{files: files, pkg: pkg, info: info}
	l.pkgs[path] = p
	return p, nil
}

// want is one expectation: a pattern that must match a diagnostic
// message reported at (file, line).
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want((?:\s+(?:"(?:[^"\\]|\\.)*"|` + "`[^`]*`" + `))+)`)
var wantArgRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "want") && strings.Contains(c.Text, `"`) {
						t.Fatalf("%s: malformed want comment: %s", fset.Position(c.Pos()), c.Text)
					}
					continue
				}
				pos := fset.Position(c.Pos())
				for _, arg := range wantArgRE.FindAllString(m[1], -1) {
					var pat string
					if arg[0] == '`' {
						pat = arg[1 : len(arg)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(arg)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, arg, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func check(t *testing.T, l *loader, a *analysis.Analyzer, p *fixturePkg) {
	t.Helper()
	fset := l.fset
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     p.files,
		Pkg:       p.pkg,
		TypesInfo: p.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer error: %v", p.pkg.Path(), err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	wants := parseWants(t, fset, p.files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
