// Package canonfields verifies that every exported field of a struct
// with a canonical byte encoding is actually written by that encoding —
// the invariant behind the content-addressed cache: two jobs that
// differ in any result-affecting field must hash differently, so a
// field the encoder forgets is a latent silent cache collision
// (battery.Spec.AppendCanonical), and a field it drops on a conversion
// boundary is a silently ignored request knob (wire.Job.ToEngine).
//
// An encoder is either
//
//   - a method named AppendCanonical, which implicitly covers its
//     receiver struct, or
//
//   - any function carrying one or more doc directives
//
//     //battlint:canonical <Type> [-Field ...]
//     //battlint:canonical <pkg>.<Type> [-Field ...]
//
//     naming the struct(s) it canonically encodes. <pkg> is the name of
//     an imported package (so cache.Key can claim core.Options).
//
// Coverage is computed over the encoder's body plus every same-package
// function it (transitively) calls: a field counts as written when a
// selector on a value of the target type reaches it. Fields that are
// deliberately not part of the encoding — result-neutral knobs like
// core.Options.RecordTrace — must be listed as -Field exclusions on the
// directive, which is the point: adding a field forces a conscious
// decision at the encoder, never a silent default. A -Field entry that
// names a missing field, or one the encoder does write, is itself
// reported so exclusions cannot go stale.
package canonfields

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the canonfields check.
var Analyzer = &analysis.Analyzer{
	Name: "canonfields",
	Doc:  "every exported field of a canonically encoded struct is written by its encoder (or consciously excluded)",
	Run:  run,
}

// encoderClaim binds one function to one struct type it must cover.
type encoderClaim struct {
	fn       *ast.FuncDecl
	target   *types.Named
	excluded map[string]bool
	pos      token.Pos // directive (or function name) position for reports
}

func run(pass *analysis.Pass) error {
	decls := funcDecls(pass)

	var claims []encoderClaim
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// Explicit: //battlint:canonical directives. Reports anchor
			// at the function name, not the comment line, so fixture
			// `// want` assertions (and editors) have a code line to
			// attach to.
			explicit := map[*types.Named]bool{}
			args, _ := analysis.FuncDirectives(fn, "battlint:canonical")
			for _, arg := range args {
				claim, errMsg := parseDirective(pass, fn, arg)
				claim.pos = fn.Name.Pos()
				if errMsg != "" {
					pass.Reportf(fn.Name.Pos(), "%s", errMsg)
					continue
				}
				explicit[claim.target] = true
				claims = append(claims, claim)
			}
			// Implicit: AppendCanonical methods cover their receiver —
			// unless a directive on the same method already claims it
			// (the way to attach exclusions to an AppendCanonical).
			if fn.Name.Name == "AppendCanonical" && fn.Recv != nil && len(fn.Recv.List) == 1 {
				if named := analysis.NamedBase(pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)); named != nil && !explicit[named] {
					if _, isStruct := named.Underlying().(*types.Struct); isStruct {
						claims = append(claims, encoderClaim{
							fn: fn, target: named,
							excluded: map[string]bool{},
							pos:      fn.Name.Pos(),
						})
					}
				}
			}
		}
	}

	for _, c := range claims {
		checkClaim(pass, decls, c)
	}
	return nil
}

// parseDirective resolves "<ref> [-Field ...]" against the package's
// type information.
func parseDirective(pass *analysis.Pass, fn *ast.FuncDecl, arg string) (encoderClaim, string) {
	fields := strings.Fields(arg)
	if len(fields) == 0 {
		return encoderClaim{}, "battlint:canonical needs a type: //battlint:canonical <Type|pkg.Type> [-Field ...]"
	}
	ref := fields[0]
	excluded := map[string]bool{}
	for _, f := range fields[1:] {
		name, ok := strings.CutPrefix(f, "-")
		if !ok || name == "" {
			return encoderClaim{}, "battlint:canonical: field exclusions must look like -FieldName, got " + quote(f)
		}
		excluded[name] = true
	}

	var obj types.Object
	if pkgName, typeName, qualified := strings.Cut(ref, "."); qualified {
		var scope *types.Scope
		for _, imp := range pass.Pkg.Imports() {
			if imp.Name() == pkgName {
				scope = imp.Scope()
				break
			}
		}
		if scope == nil {
			return encoderClaim{}, "battlint:canonical: no imported package named " + quote(pkgName)
		}
		obj = scope.Lookup(typeName)
	} else {
		obj = pass.Pkg.Scope().Lookup(ref)
	}
	if obj == nil {
		return encoderClaim{}, "battlint:canonical: cannot resolve type " + quote(ref)
	}
	named := analysis.NamedBase(obj.Type())
	if named == nil {
		return encoderClaim{}, "battlint:canonical: " + quote(ref) + " is not a named type"
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return encoderClaim{}, "battlint:canonical: " + quote(ref) + " is not a struct type"
	}
	return encoderClaim{fn: fn, target: named, excluded: excluded}, ""
}

// checkClaim computes field coverage for one claim and reports gaps.
func checkClaim(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, c encoderClaim) {
	covered := coverage(pass, decls, c.fn, c.target)
	st := c.target.Underlying().(*types.Struct)
	typeName := types.TypeString(c.target, types.RelativeTo(pass.Pkg))

	fieldNames := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		fieldNames[field.Name()] = true
		if !field.Exported() {
			continue
		}
		switch {
		case c.excluded[field.Name()] && covered[field.Name()]:
			pass.Reportf(c.pos, "stale exclusion: %s.%s is listed as -%s but the encoder writes it",
				typeName, field.Name(), field.Name())
		case !c.excluded[field.Name()] && !covered[field.Name()]:
			pass.Reportf(c.pos, "%s does not canonicalize exported field %s.%s: encode it or exclude it with -%s and a comment saying why it cannot affect the result",
				c.fn.Name.Name, typeName, field.Name(), field.Name())
		}
	}
	for name := range c.excluded {
		if !fieldNames[name] {
			pass.Reportf(c.pos, "exclusion -%s names no field of %s", name, typeName)
		}
	}
}

// coverage returns the set of target-struct fields selected anywhere in
// fn's body or in the body of any same-package function it transitively
// calls.
func coverage(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, fn *ast.FuncDecl, target *types.Named) map[string]bool {
	covered := map[string]bool{}
	seen := map[*ast.FuncDecl]bool{}
	queue := []*ast.FuncDecl{fn}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == nil || seen[cur] || cur.Body == nil {
			continue
		}
		seen[cur] = true
		ast.Inspect(cur.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel := pass.TypesInfo.Selections[n]
				if sel == nil || sel.Kind() != types.FieldVal {
					return true
				}
				if analysis.NamedBase(sel.Recv()) == target {
					// Index()[0] is the field of the target itself even
					// when the access is promoted through embedding.
					st := target.Underlying().(*types.Struct)
					covered[st.Field(sel.Index()[0]).Name()] = true
				}
			case *ast.CallExpr:
				if callee := analysis.CalleeFunc(pass.TypesInfo, n); callee != nil && callee.Pkg() == pass.Pkg {
					if d, ok := decls[callee]; ok {
						queue = append(queue, d)
					}
				}
			}
			return true
		})
	}
	return covered
}

// funcDecls indexes this package's function declarations by their
// types.Func objects.
func funcDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					out[obj] = fn
				}
			}
		}
	}
	return out
}

func quote(s string) string { return `"` + s + `"` }
