package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Ignore directives suppress one analyzer's findings on one line:
//
//	x := pick(m) //lint:ignore nondeterm seeding only; order-insensitive fold
//
// The directive names the analyzer and must carry a justification; it
// applies to findings reported on its own line (trailing form) and on the
// line directly below (standalone form). Malformed directives (unknown
// shape, missing reason) are themselves surfaced as findings by the driver
// so suppressions cannot silently rot. They are the only suppression
// mechanism.

// IgnoreDirective is one parsed //lint:ignore comment.
type IgnoreDirective struct {
	Pos      token.Pos
	File     string
	Line     int // line the directive sits on; it suppresses this line and the next
	Analyzer string
	// Malformed is set when the directive does not parse (missing analyzer
	// or missing reason); such directives suppress nothing.
	Malformed bool
}

// IgnoreSet indexes the directives of one package for suppression lookups.
type IgnoreSet struct {
	byLine map[string]map[int][]*IgnoreDirective
	all    []*IgnoreDirective
}

// ParseIgnores collects every //lint:ignore directive in files.
func ParseIgnores(fset *token.FileSet, files []*ast.File) *IgnoreSet {
	s := &IgnoreSet{byLine: make(map[string]map[int][]*IgnoreDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				d := &IgnoreDirective{Pos: c.Pos(), File: pos.Filename, Line: pos.Line}
				fields := strings.Fields(text)
				if len(fields) >= 2 { // an analyzer and a reason
					d.Analyzer = fields[0]
				} else {
					d.Malformed = true
				}
				// A trailing directive guards its own line; a standalone
				// one guards the line below. Registering both sides avoids
				// guessing which form this is.
				s.all = append(s.all, d)
				m := s.byLine[d.File]
				if m == nil {
					m = make(map[int][]*IgnoreDirective)
					s.byLine[d.File] = m
				}
				m[d.Line] = append(m[d.Line], d)
				m[d.Line+1] = append(m[d.Line+1], d)
			}
		}
	}
	return s
}

// Suppressed reports whether a well-formed directive covers a finding of
// analyzer at file:line.
func (s *IgnoreSet) Suppressed(file string, line int, analyzer string) bool {
	if s == nil {
		return false
	}
	for _, d := range s.byLine[file][line] {
		if !d.Malformed && (d.Analyzer == analyzer || d.Analyzer == "all") {
			return true
		}
	}
	return false
}

// Malformed returns every directive that failed to parse, for the driver to
// report.
func (s *IgnoreSet) Malformed() []*IgnoreDirective {
	var out []*IgnoreDirective
	for _, d := range s.all {
		if d.Malformed {
			out = append(out, d)
		}
	}
	return out
}
