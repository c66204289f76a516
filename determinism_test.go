package mgs_test

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// This file is the determinism policy, and the only place it is checked.
// Two runs of one configuration and seed must agree bit for bit, so
// nothing on the simulated path, or in code that prints an output promised
// byte-identical, may consult the host. Three rules keep it out:
//
//   - nowalltime: no import of time, math/rand, math/rand/v2 or unsafe,
//     and no string literal containing %p.
//   - nogoroutine: no go statement, iter.Pull/Pull2 coroutine or channel
//     operation outside sanctionedSites.
//   - maprange: a range over a map only appends into local slices that
//     are next mentioned by a sort.*/slices.* call, or only sums: its
//     body is body-local := plus integer +=, ++, |=, &= and ^=.
//
// There is no suppression comment: a finding is fixed in the code, or
// the rule is changed here and reviewed as a change of rule.

// deterministicPkgs names the packages whose code runs on the simulated
// path, in engine events or processor bodies. All three rules apply.
var deterministicPkgs = map[string]string{
	"internal/sim":        "the event engine and the processor coroutines",
	"internal/core":       "the MGS protocol engines and their handlers",
	"internal/vm":         "address spaces and software TLBs, consulted on every access",
	"internal/mem":        "page frames, read and written by every access",
	"internal/msg":        "message delivery and the reliable transport are events",
	"internal/msync":      "locks and barriers run in proc and handler context",
	"internal/msync/algo": "lock/barrier algorithms run in proc and handler context",
	"internal/apps":       "application bodies are processor coroutines",
	"internal/cache":      "the hardware cache and directory model prices every access",
	"internal/fault":      "fault fates are decided inside message delivery",
	"internal/obs":        "sinks fire from engine context",
	"internal/check":      "spec Feed and Chooser.Choose fire from engine context",
	"internal/serve":      "store ops run in Proc bodies; trace generation is host-side but seeded",
}

// hostPkgs names every other package under internal/ and cmd/. Each
// drives simulations from the host; the rules listed still apply where
// it writes output promised byte-identical.
var hostPkgs = map[string]struct{ rules, why string }{
	"internal/harness":   {"nowalltime maprange nogoroutine", "builds, runs and sweeps machines; its worker pool is a sanctioned site"},
	"internal/stats":     {"nowalltime maprange", "computes the breakdowns every table prints"},
	"internal/exp":       {"nowalltime maprange", "builds every sweep table and CSV"},
	"internal/cli":       {"nowalltime maprange", "writes the CSV tables"},
	"cmd/mgs":            {"nowalltime maprange", "prints what the cmd/mgs goldens pin"},
	"internal/framework": {"", "runs external apps; nothing pins its output"},
}

// sanctionedSites names the only functions that may start a second
// stack, each with why that is sound. Nothing in them is reported, and a
// listed function that excuses nothing is itself a finding, so the list
// cannot outlive the code it excuses.
var sanctionedSites = map[string]string{
	"sim.(*Proc).Fire":   "the iter.Pull of a processor body, entered only by direct switches, never scheduled",
	"harness.RunIndexed": "the sweep pool: whole simulations into caller-indexed slots, so completion order is invisible",
}

// rulesFor returns the rules for the package in dir, and whether it is listed.
func rulesFor(dir string) (string, bool) {
	if _, ok := deterministicPkgs[dir]; ok {
		return "nowalltime nogoroutine maprange", true
	}
	h, ok := hostPkgs[dir]
	return h.rules, ok
}

func TestDeterminismPolicy(t *testing.T) {
	fset := token.NewFileSet()
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*pkg{}}
	t.Run("tree", func(t *testing.T) {
		dirs := map[string]bool{}
		for _, root := range []string{"internal", "cmd"} {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if d != nil && d.IsDir() && d.Name() == "testdata" {
					return filepath.SkipDir
				}
				if err == nil && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
					dirs[filepath.ToSlash(filepath.Dir(path))] = true
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, dir := range slices.Concat(slices.Collect(maps.Keys(deterministicPkgs)), slices.Collect(maps.Keys(hostPkgs))) {
			if !dirs[dir] {
				t.Errorf("the policy lists %s, which holds no package", dir)
			}
		}
		for _, dir := range slices.Sorted(maps.Keys(dirs)) {
			rules, listed := rulesFor(dir)
			if !listed {
				t.Errorf("%s is in neither deterministicPkgs nor hostPkgs: list it in one, with its reason", dir)
				continue
			}
			p, err := l.load(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range l.findings(p, rules) {
				t.Error(f)
			}
		}
	})

	// Each rule checks itself on inline snippets, through the same loader.
	snippets := []struct{ rule, name, dir, src, want string }{
		{"maprange", "collect-then-sort", "internal/msync", `import "sort"; func ids(m map[int]bool) (ids []int) { for id := range m { ids = append(ids, id) }; sort.Ints(ids); return ids }`, ""},
		{"maprange", "sort-dropped", "internal/msync", `func ids(m map[int]bool) (ids []int) { for id := range m { ids = append(ids, id) }; return ids }`, "maprange"},
		{"maprange", "integer-sum", "internal/msync", `func sum(m map[int][2]int64) (n int64) { for _, v := range m { h := v[0]; n += h; n++ }; return n }`, ""},
		{"maprange", "string-concat", "internal/stats", `func join(m map[string]int) (s string) { for k := range m { s += k }; return s }`, "maprange"},
		{"maprange", "early-exit", "internal/core", `func first(m map[int]int) int { for k := range m { return k }; return -1 }`, "maprange"},
		{"nowalltime", "time-import", "internal/stats", `import "time"; var start = time.Now()`, "nowalltime"},
		{"nowalltime", "pointer-verb", "internal/cli", `import "fmt"; func id(x *int) string { return fmt.Sprintf("%p", x) }`, "nowalltime"},
		{"nowalltime", "host-only-package", "internal/framework", `import "time"; var start = time.Now()`, ""},
		{"nogoroutine", "channel-make", "internal/core", `func mailbox() chan int { return make(chan int) }`, "nogoroutine"},
		{"nogoroutine", "coroutine", "internal/msync/algo", `import "iter"; func first(s iter.Seq[int]) int { next, stop := iter.Pull(s); defer stop(); v, _ := next(); return v }`, "nogoroutine"},
		{"nogoroutine", "live-sanctioned-site", "internal/harness", `func RunIndexed(job func()) { go job() }`, ""},
		{"nogoroutine", "dead-sanctioned-site", "internal/sim", `type Proc struct{ next func() }; func (p *Proc) Fire() { p.next() }`, "nogoroutine"},
	}
	for _, rule := range []string{"maprange", "nowalltime", "nogoroutine"} {
		t.Run(rule, func(t *testing.T) {
			for _, tc := range snippets {
				if tc.rule != rule {
					continue
				}
				p, err := l.check(tc.dir, []string{tc.name + ".go"}, "package p; "+tc.src)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				rules, _ := rulesFor(tc.dir)
				found := l.findings(p, rules)
				if len(found) != len(strings.Fields(tc.want)) || tc.want != "" && !strings.Contains(found[0], "["+tc.want+"]") {
					t.Errorf("%s in %s: findings %q, want [%s]", tc.name, tc.dir, found, tc.want)
				}
			}
		})
	}
}

// pkg is one type-checked module package: its non-test files only.
type pkg struct {
	dir   string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// loader type-checks module packages from source, in import order, and
// takes the standard library from the compiler's export data.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg // by directory, relative to the module root
}

func (l *loader) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "mgs/")
	if !ok {
		return l.std.Import(path)
	}
	p, err := l.load(dir)
	return p.types, err
}

func (l *loader) load(dir string) (*pkg, error) {
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.go")) // the pattern is well-formed
	names = slices.DeleteFunc(names, func(n string) bool { return strings.HasSuffix(n, "_test.go") })
	p, err := l.check(dir, names, nil)
	l.pkgs[dir] = p
	return p, err
}

// check parses the named files, from src if it is not nil, and
// type-checks them as the package in dir.
func (l *loader) check(dir string, names []string, src any) (p *pkg, err error) {
	p = &pkg{dir: dir, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, src, 0)
		if err != nil {
			return p, err
		}
		p.files = append(p.files, f)
	}
	p.types, err = (&types.Config{Importer: l}).Check("mgs/"+dir, l.fset, p.files, p.info)
	return p, err
}

type reporter func(pos token.Pos, format string, args ...any)

// checks maps each rule to the function that applies it to a package.
var checks = map[string]func(*pkg, reporter){"nowalltime": noWallTime, "nogoroutine": noGoroutine, "maprange": mapRange}

// findings applies the named rules to p, one "file:line:col: [rule]
// message" per finding.
func (l *loader) findings(p *pkg, rules string) []string {
	var out []string
	for _, rule := range strings.Fields(rules) {
		checks[rule](p, func(pos token.Pos, format string, args ...any) {
			out = append(out, fmt.Sprintf("%s: [%s] %s", l.fset.Position(pos), rule, fmt.Sprintf(format, args...)))
		})
	}
	return out
}

// bannedImports are the packages through which a host value enters a
// run: the clock, a process-global random source, an address.
var bannedImports = map[string]string{
	"time":         "reads the host clock and timers; simulated time is sim.Time",
	"math/rand":    "offers a process-global source; seed a splitmix64/xorshift stream instead",
	"math/rand/v2": "offers a process-global source; seed a splitmix64/xorshift stream instead",
	"unsafe":       "turns addresses, which differ run to run, into values",
}

func noWallTime(p *pkg, report reporter) {
	for _, f := range p.files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if why, ok := bannedImports[path]; ok {
				report(imp.Pos(), "import of %q: it %s", path, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "%p") {
				report(lit.Pos(), "%%p prints an address, which differs run to run")
			}
			return true
		})
	}
}

func noGoroutine(p *pkg, report reporter) {
	name := strings.TrimPrefix(p.dir, "internal/")
	excused, at := map[string]int{}, map[string]token.Pos{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			site := siteName(name, d)
			_, sanctioned := sanctionedSites[site]
			at[site] = d.Pos() // read back only for sanctioned sites
			secondStacks(p.info, d, func(pos token.Pos, format string, args ...any) {
				if sanctioned {
					excused[site]++
				} else {
					report(pos, format, args...)
				}
			})
		}
	}
	for _, site := range slices.Sorted(maps.Keys(sanctionedSites)) {
		if strings.HasPrefix(site, name+".") && excused[site] == 0 {
			report(cmp.Or(at[site], p.files[0].Package), "%s is in sanctionedSites but starts no goroutine or coroutine and touches no channel; remove it from the list", site)
		}
	}
}

// siteName spells a function declaration as sanctionedSites does, and
// any other declaration as "".
func siteName(pkg string, d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv != nil {
		return fmt.Sprintf("%s.(%s).%s", pkg, types.ExprString(fd.Recv.List[0].Type), fd.Name.Name)
	}
	return pkg + "." + fd.Name.Name
}

// secondStacks reports every construct under root that starts a second
// stack or communicates through the Go scheduler.
func secondStacks(info *types.Info, root ast.Node, report reporter) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement hands event order to the Go scheduler")
		case *ast.SendStmt:
			report(n.Pos(), "channel send: channel order is scheduler-dependent")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive: channel order is scheduler-dependent")
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select: case choice is scheduler-dependent")
		case *ast.RangeStmt:
			if is[*types.Chan](info.TypeOf(n.X)) {
				report(n.Pos(), "range over a channel: receive order is scheduler-dependent")
			}
		case *ast.CallExpr:
			switch callee := calleeName(info, n); {
			case callee == "iter.Pull" || callee == "iter.Pull2":
				report(n.Pos(), "%s starts a coroutine, a second stack; only sim.Proc's body may run on one", callee)
			case callee == "make" && is[*types.Chan](info.TypeOf(n)),
				callee == "close" && is[*types.Chan](info.TypeOf(n.Args[0])):
				report(n.Pos(), "%s of a channel: channels are scheduler-visible communication", callee)
			}
		}
		return true
	})
}

func mapRange(p *pkg, report reporter) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			}
			for i, s := range list {
				if l, ok := s.(*ast.LabeledStmt); ok {
					s = l.Stmt
				}
				if rng, ok := s.(*ast.RangeStmt); ok && is[*types.Map](p.info.TypeOf(rng.X)) && !orderFree(p.info, rng, list[i+1:]) {
					report(rng.Pos(), "range over map: iteration order is randomized per run and leaks into state or output; "+
						"collect into a local slice and sort it, or restrict the body to integer sums")
				}
			}
			return true
		})
	}
}

// orderFree reports whether a map range has one of the two accepted
// shapes: collect-then-sort, with after the statements that follow it,
// or an integer sum.
func orderFree(info *types.Info, rng *ast.RangeStmt, after []ast.Stmt) bool {
	body := rng.Body.List
	collect := len(body) > 0
	for _, s := range body {
		v := appendTarget(info, s)
		collect = collect && v != nil && sortedNext(info, v, after)
	}
	if collect {
		return true
	}
	for _, s := range body {
		as, _ := s.(*ast.AssignStmt)
		inc, _ := s.(*ast.IncDecStmt)
		switch {
		case as != nil && as.Tok == token.DEFINE:
		case as != nil && slices.Contains(sumOps, as.Tok) && isInteger(info.TypeOf(as.Lhs[0])):
		case inc != nil && inc.Tok == token.INC && isInteger(info.TypeOf(inc.X)):
		default:
			return false
		}
	}
	return true
}

// sumOps are the assignments that commute on integers. String += and
// float arithmetic do not: they concatenate and round in iteration order.
var sumOps = []token.Token{token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN}

// appendTarget returns v for a statement v = append(v, ...) into a
// function-local slice, and nil for any other statement.
func appendTarget(info *types.Info, s ast.Stmt) types.Object {
	as, ok := s.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	call, isCall := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isCall || calleeName(info, call) != "append" {
		return nil
	}
	v := info.Uses[lhs]
	if arg, ok := call.Args[0].(*ast.Ident); !ok || v == nil || info.Uses[arg] != v || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

// sortedNext reports whether the first statement in after that mentions
// v is a sort.* or slices.* call taking v as an argument.
func sortedNext(info *types.Info, v types.Object, after []ast.Stmt) bool {
	i := slices.IndexFunc(after, func(s ast.Stmt) bool { return mentions(info, s, v) })
	if i < 0 {
		return false // never sorted: the order escaped into the slice
	}
	var call *ast.CallExpr
	if es, ok := after[i].(*ast.ExprStmt); ok {
		call, _ = es.X.(*ast.CallExpr)
	}
	if name := calleeName(info, call); !strings.HasPrefix(name, "sort.") && !strings.HasPrefix(name, "slices.") {
		return false
	}
	return slices.ContainsFunc(call.Args, func(a ast.Expr) bool {
		id, ok := a.(*ast.Ident)
		return ok && info.Uses[id] == v
	})
}

func mentions(info *types.Info, n ast.Node, v types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		found = found || ok && info.Uses[id] == v
		return !found
	})
	return found
}

// calleeName spells what a call invokes: a builtin by name, a function
// or method as "importpath.Name", anything else as "".
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if call == nil {
		return ""
	}
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) { // an explicit instantiation: f[T](...) or f[K, V](...)
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		return obj.Name()
	case *types.Func:
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

// is reports whether t's underlying type is a T.
func is[T types.Type](t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(T)
	return ok
}

func isInteger(t types.Type) bool {
	return is[*types.Basic](t) && t.Underlying().(*types.Basic).Info()&types.IsInteger != 0
}
