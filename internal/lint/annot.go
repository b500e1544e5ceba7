package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// The //vpr: annotation grammar (docs/LINTING.md):
//
//	//vpr:hotpath                    on a func: per-cycle kernel root
//	//vpr:coldpath                   on a func: cut hot-path traversal here
//	//vpr:allowalloc [reason]        on/above a line: waive one hotpathalloc finding
//	//vpr:cachekey                   on a struct: rendered into the result-cache key
//	//vpr:keyfunc TYPE               on a func: canonical key renderer for TYPE
//	//vpr:nocachekey [reason]        on a field: observer-only, excluded from the key
//	//vpr:wallclock [reason]         on a func: host-time throughput accounting, exempt from detsource
//	//vpr:detpkg                     on a package doc: package is determinism-checked by detsource
//	//vpr:detexempt [reason]         on/above a line: waive one detsource finding
//
// Directives are ordinary comments starting exactly with "//vpr:"; the
// first word after the colon is the directive name, the rest its
// arguments. A second "//" inside the comment starts a trailing remark
// and ends the directive's arguments. Directives ride in doc comments
// (functions, types, vars, fields, interface methods, package clauses)
// or stand on/immediately above the line they waive; annotcheck rejects
// unknown names and misplaced directives against the table below.

// directive is one parsed //vpr: annotation.
type directive struct {
	name string
	args []string
	pos  token.Pos
}

const directivePrefix = "//vpr:"

// parseDirectives extracts directives from comment groups.
func parseDirectives(groups ...*ast.CommentGroup) []directive {
	var out []directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			text := c.Text[len(directivePrefix):]
			// A second "//" starts a trailing remark, not arguments.
			if i := strings.Index(text, " //"); i >= 0 {
				text = text[:i]
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			out = append(out, directive{name: fields[0], args: fields[1:], pos: c.Pos()})
		}
	}
	return out
}

// hasDirective reports whether name appears among ds.
func hasDirective(ds []directive, name string) bool {
	for _, d := range ds {
		if d.name == name {
			return true
		}
	}
	return false
}

// funcDirectives returns the directives of a function declaration.
func funcDirectives(fd *ast.FuncDecl) []directive {
	return parseDirectives(fd.Doc)
}

// fieldDirectives returns the directives of one struct field (doc comment
// or trailing line comment).
func fieldDirectives(f *ast.Field) []directive {
	return parseDirectives(f.Doc, f.Comment)
}

// waiverLines indexes, per file, the lines carrying a given line-waiver
// directive (e.g. allowalloc). A construct at line L is waived by a
// directive on L (trailing comment) or L-1 (the line above).
type waiverLines map[string]map[int]bool

func collectWaiverLines(fset *token.FileSet, pkgs []*analysis.Package, name string) waiverLines {
	w := make(waiverLines)
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, g := range file.Comments {
				for _, d := range parseDirectives(g) {
					if d.name != name {
						continue
					}
					pos := fset.Position(d.pos)
					lines := w[pos.Filename]
					if lines == nil {
						lines = make(map[int]bool)
						w[pos.Filename] = lines
					}
					lines[pos.Line] = true
				}
			}
		}
	}
	return w
}

// waived reports whether the construct at pos carries a waiver on its own
// line or the line immediately above.
func (w waiverLines) waived(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	lines := w[p.Filename]
	return lines != nil && (lines[p.Line] || lines[p.Line-1])
}

// typeRefMatches reports whether a directive argument ("Stats",
// "mem.Stats") names the given struct, declared as typeName in the
// package named pkgName. Same-package references may omit the package
// name; cross-package references use the package name (not the import
// path), which is unambiguous within this module.
func typeRefMatches(arg, pkgName, typeName string) bool {
	if arg == typeName {
		return true
	}
	return arg == pkgName+"."+typeName
}

// namedDeref unwraps pointers and returns the named type of t, if any.
func namedDeref(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = p.Elem().(*types.Named)
		}
	}
	return n
}

// namedFullName renders a named type as "importpath.Name", the canonical
// cross-package identity used to match objects between a package
// type-checked from source and the same package imported from export
// data.
func namedFullName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// calleeOf resolves the static callee of a call expression: a declared
// function or a method of a concrete type. Interface method calls
// resolve to the interface's method object, which never matches a
// declaration index — exactly the conservative behaviour the hot-path
// traversal wants.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
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

// declFullName returns the canonical identity of a declared function —
// types.Func.FullName: "repro/internal/mem.NewL1" for functions,
// "(*repro/internal/mem.L1).Access" for methods.
func declFullName(info *types.Info, fd *ast.FuncDecl) string {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return ""
	}
	return fn.FullName()
}

// funcIndex maps every declared function/method of the loaded packages to
// its declaration and package.
type funcDecl struct {
	pkg  *analysis.Package
	decl *ast.FuncDecl
}

func indexFuncs(pkgs []*analysis.Package) map[string]funcDecl {
	idx := make(map[string]funcDecl)
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if name := declFullName(pkg.TypesInfo, fd); name != "" {
					idx[name] = funcDecl{pkg: pkg, decl: fd}
				}
			}
		}
	}
	return idx
}

// funcDeclAt returns the top-level function declaration whose body spans
// pos, or nil for package-level positions.
func funcDeclAt(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Body.Pos() <= pos && pos <= fd.Body.End() {
			return fd
		}
	}
	return nil
}

// baseIdentOf unwraps a selector/index/star/paren chain to the
// identifier it is rooted in: baseIdentOf(r.m.cores[i]) = r. Returns nil
// for expressions not rooted in a plain identifier (calls, literals).
func baseIdentOf(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// pkgHasDirective reports whether any file's package doc in pkg carries
// the directive (e.g. //vpr:detpkg).
func pkgHasDirective(pkg *analysis.Package, name string) bool {
	for _, file := range pkg.Syntax {
		if hasDirective(parseDirectives(file.Doc), name) {
			return true
		}
	}
	return false
}

// The known-directive table: where each //vpr: directive may be placed
// and how many arguments it takes. annotcheck enforces it so a typo or a
// misplaced directive is an error instead of a silently disabled check.

// placement is a bitmask of syntactic positions a directive may occupy.
type placement uint16

const (
	onFunc        placement = 1 << iota // function/method declaration doc
	onStructType                        // struct type declaration doc
	onIfaceType                         // interface type declaration doc
	onField                             // struct field doc or trailing comment
	onIfaceMethod                       // interface method doc or trailing comment
	onVar                               // package-level var spec doc or trailing comment
	onPackage                           // package doc
	onLine                              // freestanding or trailing statement comment
)

// placementName spells one placement bit for diagnostics.
func placementName(p placement) string {
	switch p {
	case onFunc:
		return "a function declaration"
	case onStructType:
		return "a struct type declaration"
	case onIfaceType:
		return "an interface type declaration"
	case onField:
		return "a struct field"
	case onIfaceMethod:
		return "an interface method"
	case onVar:
		return "a package-level var"
	case onPackage:
		return "a package doc comment"
	case onLine:
		return "a statement line"
	}
	return "a declaration that takes no directives"
}

// placementNames spells a placement set ("a function declaration or a
// struct field").
func placementNames(p placement) string {
	var parts []string
	for bit := placement(1); bit <= onLine; bit <<= 1 {
		if p&bit != 0 {
			parts = append(parts, placementName(bit))
		}
	}
	return strings.Join(parts, " or ")
}

// directiveSpec is one row of the known-directive table.
type directiveSpec struct {
	where  placement
	args   int  // exact argument count, when reason is false
	reason bool // free-form reason text instead of counted arguments
}

var directiveTable = map[string]directiveSpec{
	"hotpath":    {where: onFunc},
	"coldpath":   {where: onFunc},
	"allowalloc": {where: onLine, reason: true},
	"cachekey":   {where: onStructType},
	"keyfunc":    {where: onFunc, args: 1},
	"nocachekey": {where: onField, reason: true},
	"wallclock":  {where: onFunc, reason: true},
	"detpkg":     {where: onPackage},
	"detexempt":  {where: onLine, reason: true},
}
