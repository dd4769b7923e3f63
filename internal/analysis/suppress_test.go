package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// parse builds the minimal Package Filter consults: parsed files and
// their fset. No type checking needed.
func parse(t *testing.T, src string) *analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	return &analysis.Package{PkgPath: "fix", Fset: fset, Files: []*ast.File{f}}
}

// finding fabricates a detrange finding at fix.go:line.
func finding(line int) analysis.Finding {
	return analysis.Finding{
		Analyzer: "detrange",
		Pos:      token.Position{Filename: "fix.go", Line: line, Column: 2},
		Message:  "range over map in a deterministic package",
	}
}

var known = map[string]bool{"detrange": true, "hotpath": true}

func metaMessages(fs []analysis.Finding) []string {
	var out []string
	for _, f := range fs {
		if f.Analyzer == analysis.MetaAnalyzer {
			out = append(out, f.Message)
		}
	}
	return out
}

func TestFilterSuppressesSameLine(t *testing.T) {
	pkg := parse(t, `package fix

func f() {
	//battlint:allow detrange the fold is commutative
	var _ = 0
}
`)
	// The directive is on line 4; a suppression covers its own line and
	// the line below.
	for _, line := range []int{4, 5} {
		got := analysis.Filter([]analysis.Finding{finding(line)}, pkg, known, known)
		if len(got) != 0 {
			t.Errorf("finding on line %d not suppressed: %v", line, got)
		}
	}
	// Two lines below is out of range: the finding survives and the
	// allow is reported as stale.
	got := analysis.Filter([]analysis.Finding{finding(6)}, pkg, known, known)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2 (survivor + stale allow): %v", len(got), got)
	}
	if metas := metaMessages(got); len(metas) != 1 || !strings.Contains(metas[0], "suppresses nothing") {
		t.Errorf("stale allow not reported: %v", got)
	}
}

func TestFilterWrongAnalyzerDoesNotSuppress(t *testing.T) {
	pkg := parse(t, `package fix

func f() {
	//battlint:allow hotpath benchmarked, the alloc is amortized
	var _ = 0
}
`)
	got := analysis.Filter([]analysis.Finding{finding(5)}, pkg, known, known)
	// The detrange finding survives, and the hotpath allow (matching
	// nothing) is stale.
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(got), got)
	}
}

func TestFilterUnknownAnalyzer(t *testing.T) {
	pkg := parse(t, `package fix

//battlint:allow detrnge typo'd analyzer name
func f() {}
`)
	got := analysis.Filter(nil, pkg, known, known)
	metas := metaMessages(got)
	if len(metas) != 1 {
		t.Fatalf("got %d meta-findings, want 1: %v", len(metas), got)
	}
	if !strings.Contains(metas[0], `unknown analyzer "detrnge"`) ||
		!strings.Contains(metas[0], "detrange, hotpath") {
		t.Errorf("unknown-analyzer message should name the typo and list the vocabulary, got %q", metas[0])
	}
}

func TestFilterMissingNameAndReason(t *testing.T) {
	pkg := parse(t, `package fix

//battlint:allow
func f() {}

//battlint:allow detrange
func g() {}
`)
	got := analysis.Filter(nil, pkg, known, known)
	metas := metaMessages(got)
	if len(metas) != 2 {
		t.Fatalf("got %d meta-findings, want 2: %v", len(metas), got)
	}
	if !strings.Contains(metas[0], "needs an analyzer name and a reason") {
		t.Errorf("bare allow: got %q", metas[0])
	}
	if !strings.Contains(metas[1], "needs a reason") {
		t.Errorf("reasonless allow: got %q", metas[1])
	}
}

func TestFilterStaleSkippedWhenAnalyzerDidNotRun(t *testing.T) {
	pkg := parse(t, `package fix

//battlint:allow hotpath the alloc is amortized across windows
func f() {}
`)
	// Only detrange ran: the unmatched hotpath allow cannot be declared
	// stale — its analyzer produced no findings to match.
	got := analysis.Filter(nil, pkg, known, map[string]bool{"detrange": true})
	if len(got) != 0 {
		t.Errorf("allow for a non-run analyzer reported stale: %v", got)
	}
	// With the full vocabulary run, the same allow IS stale.
	got = analysis.Filter(nil, pkg, known, known)
	if metas := metaMessages(got); len(metas) != 1 || !strings.Contains(metas[0], "suppresses nothing") {
		t.Errorf("stale allow not reported under full run: %v", got)
	}
}

func TestFilterLongerDirectiveNameNotConfused(t *testing.T) {
	// //battlint:allowance must not parse as an allow.
	pkg := parse(t, `package fix

//battlint:allowance detrange not a suppression
func f() {}
`)
	got := analysis.Filter([]analysis.Finding{finding(4)}, pkg, known, known)
	if len(got) != 1 || got[0].Analyzer != "detrange" {
		t.Errorf("battlint:allowance treated as a suppression: %v", got)
	}
}
