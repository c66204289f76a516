package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mgs/internal/lint/analysis"
)

// The //mgs: annotation grammar (DESIGN.md §6):
//
//	//mgs:shared
//	    on a struct type: instances are reachable from multiple engine
//	    shards. Every write to any field outside construction must be
//	    discharged by a field annotation or a held guard. Checked by
//	    shardsafe.
//
//	//mgs:guardedby <mutexField>
//	    on a struct field: writes require <mutexField>.Lock() held —
//	    acquired in the writing function or any caller on the path.
//
//	//mgs:atomic
//	    on a struct field: the field is only touched through
//	    sync/atomic; a plain write is a diagnostic.
//
//	//mgs:shardpinned <why>
//	    on a struct field: a single shard owns the field (AtOn-pinned
//	    handlers); the justification is mandatory and audited, no
//	    mechanical check beyond its presence.

const mgsPrefix = "//mgs:"

// annDiag is a malformed-annotation finding; shardsafe reports it.
type annDiag struct {
	pos token.Pos
	msg string
}

// mgsAnnotations is every //mgs: directive in one package.
type mgsAnnotations struct {
	shared map[*types.Named]*analysis.SharedTypeFact
	bad    []annDiag
}

// sharedFact returns the annotation summary for a named type, or nil.
func (a *mgsAnnotations) sharedFact(n *types.Named) *analysis.SharedTypeFact {
	if a == nil || n == nil {
		return nil
	}
	return a.shared[n]
}

// collectAnnotations parses every //mgs: directive of the pass's
// non-test files, validating placement and arguments.
func collectAnnotations(pass *analysis.Pass) *mgsAnnotations {
	a := &mgsAnnotations{shared: map[*types.Named]*analysis.SharedTypeFact{}}
	consumed := map[*ast.Comment]bool{}
	for _, f := range sourceFiles(pass) {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(d.Specs) == 1 {
					doc = d.Doc
				}
				a.typeDirectives(pass, ts, doc, consumed)
			}
		}
		// Anything left is misplaced or misspelled: say so rather than
		// silently enforcing nothing.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, mgsPrefix) && !consumed[c] {
					a.bad = append(a.bad, annDiag{
						pos: c.Pos(),
						msg: "misplaced //mgs: directive (must be in the doc comment of a type or struct field): " + firstLine(c.Text),
					})
				}
			}
		}
	}
	return a
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// directive splits "//mgs:verb rest" into its verb and argument text.
func directive(c *ast.Comment) (verb, rest string, ok bool) {
	if !strings.HasPrefix(c.Text, mgsPrefix) {
		return "", "", false
	}
	body := strings.TrimPrefix(c.Text, mgsPrefix)
	verb, rest, _ = strings.Cut(body, " ")
	return verb, strings.TrimSpace(rest), true
}

func (a *mgsAnnotations) typeDirectives(pass *analysis.Pass, ts *ast.TypeSpec, doc *ast.CommentGroup, consumed map[*ast.Comment]bool) {
	obj, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	var named *types.Named
	if obj != nil {
		named, _ = obj.Type().(*types.Named)
	}
	st, isStruct := ts.Type.(*ast.StructType)

	fact := &analysis.SharedTypeFact{Fields: map[string]*analysis.FieldFact{}}
	if doc != nil {
		for _, c := range doc.List {
			verb, _, ok := directive(c)
			if !ok {
				continue
			}
			consumed[c] = true
			if verb != "shared" {
				a.bad = append(a.bad, annDiag{pos: c.Pos(),
					msg: "//mgs:" + verb + " is not valid on a type declaration (only //mgs:shared is)"})
				continue
			}
			if !isStruct {
				a.bad = append(a.bad, annDiag{pos: c.Pos(),
					msg: "//mgs:shared only applies to struct types"})
				continue
			}
			fact.Shared = true
		}
	}
	if isStruct {
		for _, field := range st.Fields.List {
			for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
				if cg == nil {
					continue
				}
				for _, c := range cg.List {
					if verb, rest, ok := directive(c); ok {
						consumed[c] = true
						a.fieldDirective(pass, st, field, c.Pos(), verb, rest, fact)
					}
				}
			}
		}
	}
	if named != nil && (fact.Shared || len(fact.Fields) > 0) {
		a.shared[named] = fact
	}
}

func (a *mgsAnnotations) fieldDirective(pass *analysis.Pass, st *ast.StructType, field *ast.Field, pos token.Pos, verb, rest string, fact *analysis.SharedTypeFact) {
	var ff *analysis.FieldFact
	switch verb {
	case "guardedby":
		if rest == "" {
			a.bad = append(a.bad, annDiag{pos: pos,
				msg: "//mgs:guardedby needs the name of the guarding mutex field"})
			return
		}
		if !structHasMutexField(pass, st, rest) {
			a.bad = append(a.bad, annDiag{pos: pos,
				msg: "//mgs:guardedby " + rest + ": no sync.Mutex/sync.RWMutex field of that name in this struct"})
			return
		}
		ff = &analysis.FieldFact{Kind: "guardedby", Arg: rest}
	case "atomic":
		if rest != "" {
			a.bad = append(a.bad, annDiag{pos: pos,
				msg: "//mgs:atomic takes no arguments"})
			return
		}
		ff = &analysis.FieldFact{Kind: "atomic"}
	case "shardpinned":
		if rest == "" {
			a.bad = append(a.bad, annDiag{pos: pos,
				msg: "//mgs:shardpinned needs a justification naming the owning shard/context"})
			return
		}
		ff = &analysis.FieldFact{Kind: "shardpinned", Arg: rest}
	default:
		a.bad = append(a.bad, annDiag{pos: pos,
			msg: "//mgs:" + verb + " is not valid on a struct field (guardedby/atomic/shardpinned are)"})
		return
	}
	if len(field.Names) == 0 {
		a.bad = append(a.bad, annDiag{pos: pos,
			msg: "//mgs:" + verb + " on an embedded field is not supported; name the field"})
		return
	}
	for _, name := range field.Names {
		fact.Fields[name.Name] = ff
	}
}

// structHasMutexField reports whether st declares a field named name of
// type sync.Mutex or sync.RWMutex.
func structHasMutexField(pass *analysis.Pass, st *ast.StructType, name string) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name != name {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[f.Type]; ok && isMutexType(tv.Type) {
				return true
			}
		}
	}
	return false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}
