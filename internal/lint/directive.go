package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive grammar (documented in DESIGN.md §2d):
//
//	//lint:allow analyzer[,analyzer...] [reason...]
//
// The comment must start exactly with "//lint:allow" (no space after the
// slashes, mirroring //go: directives). The analyzer list is comma-separated
// with no spaces; everything after the first space is a free-text reason and
// is strongly encouraged — an exception without a reason is a review smell.
// A directive suppresses the listed analyzers on the directive's own line
// (trailing-comment style) and on the line directly below it
// (comment-above-statement style). It never applies file- or block-wide:
// every exception is visible at the call site it excuses.
const allowPrefix = "//lint:allow"

// allowKey identifies one suppressed (file, line, analyzer) cell.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// AllowIndex is the materialized suppression set of a program: every
// (file, line, analyzer) cell a //lint:allow directive covers. Every
// analyzer of a run reports through Pass.Reportf, which consults it.
//
// The index also records which cells actually suppressed a diagnostic
// (Allows marks its hits), so after every analyzer has run, StaleAllows
// can report directives that no longer excuse anything. It is not
// concurrency-safe; Run executes one analyzer at a time.
type AllowIndex struct {
	cells map[allowKey]bool
	hits  map[allowKey]bool
	// directives inventories every parsed allow directive in source order,
	// one record per (directive comment, analyzer name) pair.
	directives []allowDirective
}

// allowDirective is one //lint:allow comment's claim for one analyzer.
type allowDirective struct {
	pos      token.Position
	analyzer string
}

// BuildAllowIndex scans every comment in the files and materializes the
// suppressed (file, line, analyzer) set.
func BuildAllowIndex(fset *token.FileSet, files []*ast.File) *AllowIndex {
	idx := &AllowIndex{cells: map[allowKey]bool{}, hits: map[allowKey]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := parseAllow(c.Text)
				if len(names) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range names {
					idx.cells[allowKey{pos.Filename, pos.Line, name}] = true
					idx.cells[allowKey{pos.Filename, pos.Line + 1, name}] = true
					idx.directives = append(idx.directives, allowDirective{pos: pos, analyzer: name})
				}
			}
		}
	}
	return idx
}

// parseAllow extracts the analyzer names from one comment's text, or nil
// when the comment is not an allow directive.
func parseAllow(text string) []string {
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok {
		return nil
	}
	// Require a separator after the keyword so "//lint:allowx" is not a
	// directive.
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return nil
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	var names []string
	for _, name := range strings.Split(fields[0], ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// Allows reports whether the directive set suppresses the analyzer at the
// position's line, recording the hit so StaleAllows can tell which
// directives still earn their keep. A nil index allows nothing.
func (idx *AllowIndex) Allows(analyzer string, pos token.Position) bool {
	if idx == nil {
		return false
	}
	key := allowKey{pos.Filename, pos.Line, analyzer}
	if !idx.cells[key] {
		return false
	}
	idx.hits[key] = true
	return true
}

// StaleAllowsName is the analyzer name stale-directive diagnostics carry —
// and the name that suppresses them, so a deliberately speculative allow
// can itself be excused.
const StaleAllowsName = "staleallow"

// NewStaleAllow builds the staleallow analyzer, which judges the
// directives once the analyzers it is built from have reported, so it
// runs last: a directive naming none of them is reported by UnknownAllows,
// and one whose analyzer suppressed nothing by StaleAllows.
func NewStaleAllow(analyzers ...*Analyzer) *Analyzer {
	known := map[string]bool{StaleAllowsName: true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return &Analyzer{
		Name: StaleAllowsName,
		Doc:  "//lint:allow directives must name an analyzer and still suppress a diagnostic",
		Run: func(pass *Pass) {
			pass.rep.diags = append(pass.rep.diags, pass.allow.StaleAllows(known)...)
			pass.rep.diags = append(pass.rep.diags, pass.allow.UnknownAllows(known)...)
		},
	}
}

// StaleAllows reports every allow directive naming an analyzer in ran that
// never suppressed a diagnostic during this index's lifetime. Call it only
// after every analyzer in ran has finished reporting; directives for
// analyzers outside ran are skipped (UnknownAllows reports the ones that
// name no analyzer at all). The returned diagnostics are unsorted.
func (idx *AllowIndex) StaleAllows(ran map[string]bool) []Diagnostic {
	if idx == nil {
		return nil
	}
	var diags []Diagnostic
	for _, d := range idx.directives {
		if !ran[d.analyzer] {
			continue
		}
		if idx.hits[allowKey{d.pos.Filename, d.pos.Line, d.analyzer}] ||
			idx.hits[allowKey{d.pos.Filename, d.pos.Line + 1, d.analyzer}] {
			continue
		}
		if idx.Allows(StaleAllowsName, d.pos) {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      d.pos,
			Analyzer: StaleAllowsName,
			Message:  fmt.Sprintf("//lint:allow %s no longer suppresses any diagnostic; remove the directive", d.analyzer),
		})
	}
	return diags
}

// UnknownAllows reports every allow directive naming an analyzer outside
// known — a misspelling or a deleted analyzer. Such a directive suppresses
// nothing, and StaleAllows never judges it, so it is reported under
// StaleAllowsName; //lint:allow staleallow does not excuse it. The
// returned diagnostics are unsorted.
func (idx *AllowIndex) UnknownAllows(known map[string]bool) []Diagnostic {
	if idx == nil {
		return nil
	}
	var diags []Diagnostic
	for _, d := range idx.directives {
		if known[d.analyzer] {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      d.pos,
			Analyzer: StaleAllowsName,
			Message:  fmt.Sprintf("//lint:allow %s: no analyzer named %s; fix or remove the directive", d.analyzer, d.analyzer),
		})
	}
	return diags
}
