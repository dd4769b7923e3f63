package analysis

import (
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// SuppressionDirective is the comment vocabulary that acknowledges a
// finding in place: //battlint:allow <analyzer> <reason>. It applies to
// diagnostics on its own line and on the line directly below it, so it
// works both as a trailing comment and as a line of its own above the
// reported statement.
const SuppressionDirective = "battlint:allow"

// MetaAnalyzer names the pseudo-analyzer that reports problems with the
// suppression comments themselves. It cannot be suppressed.
const MetaAnalyzer = "battlint"

// suppression is one parsed //battlint:allow comment.
type suppression struct {
	file     string
	line     int
	analyzer string
	pos      token.Pos
}

// Filter applies the package's //battlint:allow comments to findings: a
// finding whose analyzer is named by a suppression on the same line (or
// the line directly below the suppression) is dropped. Problems in the
// suppressions themselves come back as MetaAnalyzer findings, so a
// typo'd or unjustified allow can never silently disable a check:
//
//   - an analyzer name not in known (the full battlint vocabulary),
//   - a missing reason,
//   - a suppression that matches no finding of an analyzer in ran —
//     stale allows only mislead.
//
// The returned slice is sorted.
func Filter(findings []Finding, pkg *Package, known, ran map[string]bool) []Finding {
	var sups []suppression
	var out []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//"+SuppressionDirective)
				if !ok {
					continue
				}
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				reason = strings.TrimSpace(reason)
				switch {
				case name == "":
					out = append(out, Finding{
						Analyzer: MetaAnalyzer, Pos: pos,
						Message: "battlint:allow needs an analyzer name and a reason: //battlint:allow <analyzer> <reason>",
					})
					continue
				case !known[name]:
					out = append(out, Finding{
						Analyzer: MetaAnalyzer, Pos: pos,
						Message: "battlint:allow names unknown analyzer " + strconv.Quote(name) + " (known: " + strings.Join(sortedKeys(known), ", ") + ")",
					})
					continue
				case reason == "":
					out = append(out, Finding{
						Analyzer: MetaAnalyzer, Pos: pos,
						Message: "battlint:allow " + name + " needs a reason explaining why the finding is acceptable",
					})
					continue
				}
				sups = append(sups, suppression{
					file: pos.Filename, line: pos.Line,
					analyzer: name, pos: c.Pos(),
				})
			}
		}
	}

	used := make([]bool, len(sups))
findings:
	for _, f := range findings {
		for i, s := range sups {
			if s.analyzer == f.Analyzer && s.file == f.Pos.Filename &&
				(s.line == f.Pos.Line || s.line+1 == f.Pos.Line) {
				used[i] = true
				continue findings
			}
		}
		out = append(out, f)
	}
	for i, s := range sups {
		if !used[i] && ran[s.analyzer] {
			out = append(out, Finding{
				Analyzer: MetaAnalyzer, Pos: pkg.Fset.Position(s.pos),
				Message: "battlint:allow " + s.analyzer + " suppresses nothing here; remove it",
			})
		}
	}
	SortFindings(out)
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
