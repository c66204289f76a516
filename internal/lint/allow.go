package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"mgs/internal/lint/analysis"
)

// The escape hatch. A comment of the form
//
//	//mgslint:allow <name>[,<name>...] -- <justification>
//
// suppresses diagnostics from the named analyzers (or "all") on the
// comment's own line and on the line immediately below it, so both
// trailing and line-above placement work. The justification after the
// "--" separator is mandatory: an allow that does not say *why* the
// exception is sound is itself a diagnostic, and suppresses nothing.
//
// Allows are also accountable: one that no longer suppresses anything —
// the code it excused was fixed or deleted — is a "dead allow"
// diagnostic, so the waiver list can only shrink ahead of the code it
// documents, never outlive it. Deadness is only decided when every
// analyzer the comment names actually ran (a single-analyzer test run
// must not condemn another analyzer's allows).

const allowPrefix = "//mgslint:allow"

type allowSite struct {
	pos       token.Pos
	file      string
	line      int
	analyzers map[string]bool // names, or "all"
	justified bool
	badNames  []string // names not matching any registered analyzer
}

// AllowList holds one package's parsed //mgslint:allow comments and
// tracks which of them earned their keep by suppressing a diagnostic in
// Filter.
type AllowList struct {
	fset  *token.FileSet
	sites []allowSite
	used  []bool
}

// ParseAllowList extracts every //mgslint:allow comment in files.
func ParseAllowList(fset *token.FileSet, files []*ast.File) *AllowList {
	al := &AllowList{fset: fset}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				site := allowSite{
					pos:       c.Pos(),
					file:      fset.Position(c.Pos()).Filename,
					line:      fset.Position(c.Pos()).Line,
					analyzers: map[string]bool{},
				}
				names := rest
				if i := strings.Index(rest, "--"); i >= 0 {
					names = rest[:i]
					site.justified = strings.TrimSpace(rest[i+2:]) != ""
				}
				for _, n := range strings.Split(names, ",") {
					n = strings.TrimSpace(n)
					if n == "" {
						continue
					}
					site.analyzers[n] = true
					if n != "all" && !knownAnalyzer(n) {
						site.badNames = append(site.badNames, n)
					}
				}
				al.sites = append(al.sites, site)
			}
		}
	}
	al.used = make([]bool, len(al.sites))
	return al
}

func knownAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// coversAt reports whether this well-formed site sits on commentLine of
// file and names the analyzer.
func (s *allowSite) coversAt(name, file string, commentLine int) bool {
	if !s.justified || len(s.badNames) > 0 {
		return false
	}
	if !s.analyzers["all"] && !s.analyzers[name] {
		return false
	}
	return s.file == file && s.line == commentLine
}

// permit reports whether a well-formed allow covers the named analyzer
// at pos, marking the covering site used. A trailing comment on the
// diagnostic's own line is credited before one on the line above, so
// consecutive lines each carrying their own allow both stay live.
func (al *AllowList) permit(analyzer string, pos token.Pos) bool {
	p := al.fset.Position(pos)
	for _, commentLine := range []int{p.Line, p.Line - 1} {
		for i := range al.sites {
			if al.sites[i].coversAt(analyzer, p.Filename, commentLine) {
				al.used[i] = true
				return true
			}
		}
	}
	return false
}

// Filter drops diagnostics covered by a well-formed allow comment and
// appends one "mgslint-allow" diagnostic per defective comment: missing
// justification, unknown analyzer name, or — when every analyzer the
// comment names is in ran — a dead allow that suppressed nothing.
func (al *AllowList) Filter(diags []analysis.Diagnostic, ran []string) []analysis.Diagnostic {
	ranSet := map[string]bool{}
	for _, r := range ran {
		ranSet[r] = true
	}
	var out []analysis.Diagnostic
	for _, d := range diags {
		if !al.permit(d.Analyzer, d.Pos) {
			out = append(out, d)
		}
	}
	for i, s := range al.sites {
		if !s.justified {
			out = append(out, analysis.Diagnostic{
				Pos:      s.pos,
				Analyzer: "mgslint-allow",
				Message:  "mgslint:allow without a justification (write `//mgslint:allow <analyzer> -- <why this is sound>`); nothing is suppressed",
			})
			continue
		}
		if len(s.badNames) > 0 {
			for _, n := range s.badNames {
				out = append(out, analysis.Diagnostic{
					Pos:      s.pos,
					Analyzer: "mgslint-allow",
					Message:  fmt.Sprintf("mgslint:allow names unknown analyzer %q; nothing is suppressed", n),
				})
			}
			continue
		}
		if al.used[i] {
			continue
		}
		decided := true
		for n := range s.analyzers {
			if n == "all" {
				for _, a := range All() {
					if !ranSet[a.Name] {
						decided = false
					}
				}
			} else if !ranSet[n] {
				decided = false
			}
		}
		if decided {
			out = append(out, analysis.Diagnostic{
				Pos:      s.pos,
				Analyzer: "mgslint-allow",
				Message:  "dead mgslint:allow: it suppresses no diagnostic; remove it",
			})
		}
	}
	return out
}
