// Package analysistest runs a battlint analyzer over seeded-violation
// fixture packages and checks its findings against expectations written
// in the fixture source, mirroring golang.org/x/tools/go/analysis/
// analysistest: a line that should be reported carries a comment
//
//	// want "regexp"
//
// (one or more Go string literals, each matched against one finding's
// message on that line). Every finding must be wanted and every want
// must be found. Fixtures live under the analyzer's
// testdata/src/<pkg>/ directory; sibling fixture packages are
// importable by their path under testdata/src.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads each fixture package from dir/src/<pkgpath>, applies the
// analyzer, and reports any mismatch between its findings and the
// fixtures' // want comments as test errors. It returns the raw
// (unfiltered) findings of the last package, so callers can feed them
// through analysis.Filter for suppression tests.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) []analysis.Finding {
	t.Helper()
	var last []analysis.Finding
	for _, pkgpath := range pkgpaths {
		pkg, err := analysis.LoadFixtureDir(dir+"/src", pkgpath)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkgpath, err)
		}
		findings, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgpath, err)
		}
		check(t, pkg, findings)
		last = findings
	}
	return last
}

// RunFiltered loads one fixture package, applies the analyzer, and
// returns its findings both raw and after //battlint:allow suppression
// (with the analyzer as the entire known vocabulary). Unlike Run it
// checks nothing itself: tests assert on the difference — typically
// that exactly the fixture's allowed findings disappeared and no
// battlint meta-findings took their place.
func RunFiltered(t *testing.T, dir string, a *analysis.Analyzer, pkgpath string) (raw, filtered []analysis.Finding) {
	t.Helper()
	pkg, err := analysis.LoadFixtureDir(dir+"/src", pkgpath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgpath, err)
	}
	raw, err = analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgpath, err)
	}
	ran := map[string]bool{a.Name: true}
	filtered = analysis.Filter(raw, pkg, ran, ran)
	return raw, filtered
}

// expectation is one parsed // want entry.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	met  bool
}

func check(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, pkg.Fset, c)...)
			}
		}
	}
	for _, got := range findings {
		matched := false
		for _, w := range wants {
			if w.met || w.file != got.Pos.Filename || w.line != got.Pos.Line {
				continue
			}
			if w.re.MatchString(got.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %v", got)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.text)
		}
	}
}

// parseWants extracts the expectations of one comment. The comment must
// read `// want` followed by one or more Go string literals (quoted or
// backquoted), each a regexp.
func parseWants(t *testing.T, fset *token.FileSet, c *ast.Comment) []*expectation {
	t.Helper()
	text, ok := strings.CutPrefix(c.Text, "// want ")
	if !ok {
		if text, ok = strings.CutPrefix(c.Text, "//want "); !ok {
			return nil
		}
	}
	pos := fset.Position(c.Pos())
	var out []*expectation
	rest := strings.TrimSpace(text)
	for rest != "" {
		lit, remainder, err := cutStringLit(rest)
		if err != nil {
			t.Fatalf("%s: malformed want comment: %v", pos, err)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: want pattern %q: %v", pos, lit, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, text: lit})
		rest = strings.TrimSpace(remainder)
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment has no patterns", pos)
	}
	return out
}

// cutStringLit splits one leading Go string literal off s.
func cutStringLit(s string) (lit, rest string, err error) {
	if s == "" {
		return "", "", fmt.Errorf("empty pattern")
	}
	quote := s[0]
	if quote != '"' && quote != '`' {
		return "", "", fmt.Errorf("pattern must be a quoted or backquoted string, got %q", s)
	}
	for i := 1; i < len(s); i++ {
		switch {
		case s[i] == '\\' && quote == '"':
			i++
		case s[i] == quote:
			lit, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", err
			}
			return lit, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated pattern %q", s)
}
