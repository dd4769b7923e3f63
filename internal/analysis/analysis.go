// Package analysis is battlint's analyzer framework: a deliberately
// small, stdlib-only mirror of the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) plus the package loader and the
// //battlint:allow suppression layer the cmd/battlint driver runs them
// through.
//
// The repository's correctness guarantees — bit-identical results
// across every optimization, content-addressed cache keys that never
// silently collide or split, cancellation that reaches the innermost
// loop, a 0 allocs/op hot path — were previously enforced only by tests
// and reviewer vigilance. The analyzers under internal/analysis/...
// machine-check them:
//
//	canonfields  every exported field feeding a canonical encoding is
//	             written by it (or consciously excluded)
//	ctxflow      a function that receives a ctx threads it: no
//	             context.Background/TODO, no dropping ctx by calling
//	             Run when RunContext exists
//	detrange     no map iteration order can leak into byte-deterministic
//	             outputs of //battlint:deterministic packages
//	fsseam       //battlint:fsseam packages route filesystem calls
//	             through fault.FS, never direct os.*
//	hotpath      //battsched:hotpath functions stay free of
//	             fmt/time.Now/math-rand calls and defer-in-loop
//	unusedwrite  a conservative, block-local dead-store check
//
// The API shape intentionally tracks x/tools so that, if the real
// go/analysis module ever becomes vendorable here, each analyzer ports
// by changing one import line. The one extension is the suppression
// vocabulary: a finding can be acknowledged in place with
//
//	//battlint:allow <analyzer> <reason>
//
// on the reported line or the line above it. Suppressions are
// themselves checked — an unknown analyzer name or a missing reason is
// a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one named invariant check. The fields mirror
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //battlint:allow suppressions. It must be a valid Go
	// identifier.
	Name string
	// Doc is the one-paragraph description -list prints.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through the pass.
	Run func(*Pass) error
}

// A Pass connects one analyzer run to one loaded package. The fields
// mirror golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps every token.Pos in Files.
	Fset *token.FileSet
	// Files are the package's parsed, comment-bearing syntax trees.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression, definition, use
	// and selection maps for Files.
	TypesInfo *types.Info
	// report collects findings; use Reportf.
	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding inside a pass, positioned by token.Pos.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a driver-level diagnostic: resolved to a file position
// and tagged with the analyzer that produced it. The driver prints
// findings as "file:line:col: [analyzer] message".
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// RunAnalyzers applies every analyzer to pkg and returns the findings
// sorted by position. A panicking or erroring analyzer aborts the run —
// an analyzer bug must fail loudly, not silently pass a package.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.report = func(d Diagnostic) {
			out = append(out, Finding{
				Analyzer: name,
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	SortFindings(out)
	return out, nil
}

// SortFindings orders findings by file, line, column, analyzer.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Directive comments. Like the go toolchain's //go: directives these
// are machine-readable comment lines with no space after the slashes:
//
//	//battlint:deterministic          (package marker, any file)
//	//battsched:hotpath               (function doc marker)
//	//battlint:canonical <type> [-F]  (function doc marker, with args)
//	//battlint:allow <analyzer> <why> (suppression; see suppress.go)

// HasPackageDirective reports whether any comment line in any of the
// files is exactly //<name> — the placement-insensitive form used for
// package-wide markers like //battlint:deterministic.
func HasPackageDirective(files []*ast.File, name string) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == "//"+name {
					return true
				}
			}
		}
	}
	return false
}

// FuncDirectives returns the argument remainder of every doc-comment
// line of fn that starts with //<name>: the marker //battsched:hotpath
// yields one "" entry, //battlint:canonical core.Options -RecordTrace
// yields "core.Options -RecordTrace". The second result carries each
// directive's position for reporting.
func FuncDirectives(fn *ast.FuncDecl, name string) (args []string, poss []token.Pos) {
	if fn.Doc == nil {
		return nil, nil
	}
	for _, c := range fn.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//"+name)
		if !ok {
			continue
		}
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // e.g. //battlint:canonicalize is a different word
		}
		args = append(args, strings.TrimSpace(rest))
		poss = append(poss, c.Pos())
	}
	return args, poss
}

// CalleeFunc resolves the function or method a call expression invokes,
// or nil when the callee is not a declared *types.Func (a func-typed
// variable, a conversion, a builtin).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// NamedBase unwraps pointers and aliases down to the *types.Named type,
// or nil if t has none.
func NamedBase(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}
