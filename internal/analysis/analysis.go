// Package analysis is a self-contained static-analysis framework for the
// EISR invariants the compiler cannot see: the fast-path discipline of
// §3.2 (gates reach plugin instances through the flow cache without
// blocking or allocating) and the plugin-lifecycle contract of §4 (every
// plugin answers the standardized message set). The API deliberately
// mirrors golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic —
// so passes can migrate to the upstream driver verbatim if the
// dependency ever becomes available; the loader (load.go) and the
// cmd/eisrlint driver stand in for go/packages and unitchecker using
// only the standard library and the go command.
//
// Three marker comments steer the passes:
//
//	//eisr:fastpath   seeds the fastpath analyzer: this function is on
//	                  the per-packet path and everything statically
//	                  reachable from it (same package) inherits the
//	                  discipline.
//	//eisr:slowpath   bounds traversal: a call from fast-path code into
//	                  a slowpath-marked function is the architectural
//	                  fast/slow split (first-packet classification, ICMP
//	                  generation) and is not descended into.
//	//eisr:allow(NAME) REASON
//	                  suppresses NAME's diagnostic on the same or the
//	                  following line. A bare allow with no justification
//	                  is itself a diagnostic — suppressions must explain
//	                  themselves.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer describes one analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and allow() comments.
	Name string
	// Doc is the one-paragraph description shown by eisrlint -help.
	Doc string
	// Run applies the pass to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one package's syntax and types through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags   []Diagnostic
	allows  map[string]map[int][]*allowMark // file -> line -> marks
	barNote []Diagnostic                    // malformed allow comments
}

// Reportf records a diagnostic unless an //eisr:allow(name) on the same
// or the preceding line suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// allowMark is one parsed //eisr:allow(name) comment.
type allowMark struct {
	name   string
	reason string
	pos    token.Pos
	used   bool
}

var allowRe = regexp.MustCompile(`^eisr:allow\(([a-z0-9_-]+)\)\s*(.*)$`)

// buildAllows indexes the //eisr:allow comments of every file.
func (p *Pass) buildAllows() {
	p.allows = make(map[string]map[int][]*allowMark)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "eisr:allow") {
					continue
				}
				m := allowRe.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					p.barNote = append(p.barNote, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed //eisr:allow: want //eisr:allow(analyzer) justification",
						Analyzer: p.Analyzer.Name,
					})
					continue
				}
				posn := p.Fset.Position(c.Pos())
				byLine := p.allows[posn.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allowMark)
					p.allows[posn.Filename] = byLine
				}
				byLine[posn.Line] = append(byLine[posn.Line],
					&allowMark{name: m[1], reason: m[2], pos: c.Pos()})
			}
		}
	}
}

// suppressed reports whether an allow comment for this analyzer covers
// pos (same line, or the line above — the comment-above-the-statement
// style).
func (p *Pass) suppressed(pos token.Pos) bool {
	if p.allows == nil {
		p.buildAllows()
	}
	posn := p.Fset.Position(pos)
	byLine := p.allows[posn.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, m := range byLine[line] {
			if m.name == p.Analyzer.Name {
				m.used = true
				return true
			}
		}
	}
	return false
}

// RunAnalyzer applies one analyzer to a loaded package and returns its
// diagnostics (including malformed-allow notes).
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	pass.buildAllows()
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
	}
	// Dedup: lock-scope descent can reach the same helper from several
	// callers and re-report the same violation.
	all := append(pass.diags, pass.barNote...)
	seen := make(map[Diagnostic]bool, len(all))
	out := all[:0]
	for _, d := range all {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out, nil
}

// ---- shared AST/type helpers used by the passes ----

// FuncDeclOf maps every declared function/method object in the package
// to its declaration, so passes can traverse static call edges.
func FuncDeclOf(pass *Pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				m[obj] = fd
			}
		}
	}
	return m
}

// CalleeFunc resolves the static callee of a call expression, or nil for
// calls through function values, builtins, and conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// IsInterfaceCall reports whether a call dispatches dynamically through
// an interface method (the EISR plugin indirection shape).
func IsInterfaceCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	return types.IsInterface(s.Recv())
}

// HasMarker reports whether a function declaration's doc comment carries
// the given //eisr: marker (e.g. "fastpath").
func HasMarker(fd *ast.FuncDecl, marker string) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "eisr:"+marker {
			return true
		}
	}
	return false
}

// IsStdlibPkg reports whether a package is part of the standard library
// (no dot in the first import-path element — the go command's own
// heuristic).
func IsStdlibPkg(pkg *types.Package) bool {
	if pkg == nil {
		return true
	}
	first, _, _ := strings.Cut(pkg.Path(), "/")
	return !strings.Contains(first, ".")
}

// RecvNamed returns the named receiver type of a method object, looking
// through pointers.
func RecvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
