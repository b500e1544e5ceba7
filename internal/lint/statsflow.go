package lint

import (
	"go/ast"
	"sort"

	"repro/internal/lint/analysis"
)

// StatsFlow guards the counter-plumbing invariant: every field of a
// struct annotated //vpr:stats (core.Stats, mem.Stats, pipeline.Stats)
// must be referenced by at least one function annotated //vpr:statsink
// for that type — the aggregate/merge functions results flow through
// ((*core.Stats).Add, (*mem.Stats).Add, pipeline.addStats,
// (*pipeline.Multicore).Aggregate). An embedded field counts as a field
// named after its type.
// A counter added to the struct but not to a sink is silently dropped
// from every aggregated result; that is the bug class this analyzer
// turns into a build failure. Fields that are derived in the sinks
// rather than merged can be waived with //vpr:statsexempt <reason>.
var StatsFlow = &analysis.Analyzer{
	Name: "statsflow",
	Doc:  "every //vpr:stats counter must be referenced by a //vpr:statsink aggregate",
	Run:  runStatsFlow,
}

// annotStruct is one annotated counter struct.
type annotStruct struct {
	pkg      *analysis.Package
	pkgName  string
	typeName string
	fullName string // importpath.Name
	st       *ast.StructType
	sinks    []funcDecl
}

func runStatsFlow(pass *analysis.Pass) error {
	structs := collectAnnotatedStructs(pass, "stats")
	if len(structs) == 0 {
		return nil
	}

	// Attach sinks: any function annotated //vpr:statsink TYPE in any
	// loaded package.
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for _, dir := range funcDirectives(fd) {
					if dir.name != "statsink" {
						continue
					}
					if len(dir.args) != 1 {
						pass.Reportf(dir.pos, "//vpr:statsink needs exactly one type argument")
						continue
					}
					matched := false
					for _, s := range structs {
						same := pkg.ImportPath == s.pkg.ImportPath
						if (same && typeRefMatches(dir.args[0], s.pkgName, s.typeName)) ||
							(!same && dir.args[0] == s.pkgName+"."+s.typeName) {
							s.sinks = append(s.sinks, funcDecl{pkg: pkg, decl: fd})
							matched = true
						}
					}
					if !matched {
						pass.Reportf(dir.pos, "//vpr:statsink %s names no //vpr:stats struct", dir.args[0])
					}
				}
			}
		}
	}

	names := make([]string, 0, len(structs))
	for n := range structs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := structs[n]
		if len(s.sinks) == 0 {
			pass.Reportf(s.st.Pos(), "//vpr:stats struct %s.%s has no //vpr:statsink aggregate — annotate its merge function",
				s.pkgName, s.typeName)
			continue
		}
		checkStatsStruct(pass, s)
	}
	return nil
}

// collectAnnotatedStructs finds every struct type whose declaration
// carries the given directive, keyed by full name.
func collectAnnotatedStructs(pass *analysis.Pass, directiveName string) map[string]*annotStruct {
	out := make(map[string]*annotStruct)
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					ds := parseDirectives(gd.Doc, ts.Doc, ts.Comment)
					if !hasDirective(ds, directiveName) {
						continue
					}
					full := pkg.ImportPath + "." + ts.Name.Name
					out[full] = &annotStruct{
						pkg:      pkg,
						pkgName:  pkg.Name,
						typeName: ts.Name.Name,
						fullName: full,
						st:       st,
					}
				}
			}
		}
	}
	return out
}

// checkStatsStruct verifies each field reaches a sink. An embedded field
// (another layer's counter struct) counts as a field named after its
// type, so a sink must fold it as a whole.
func checkStatsStruct(pass *analysis.Pass, s *annotStruct) {
	for _, field := range s.st.Fields.List {
		if hasDirective(fieldDirectives(field), "statsexempt") {
			continue
		}
		for _, name := range fieldIdents(field) {
			if !referencedInAny(s, name.Name) {
				pass.Reportf(name.Pos(),
					"counter %s.%s.%s is not referenced by any //vpr:statsink aggregate — it is silently dropped from merged results; plumb it through or waive with //vpr:statsexempt <reason>",
					s.pkgName, s.typeName, name.Name)
			}
		}
	}
}

// referencedInAny reports whether any sink body selects fieldName on a
// value of the struct's type.
func referencedInAny(s *annotStruct, fieldName string) bool {
	for _, sink := range s.sinks {
		if selectsField(sink, s.fullName, fieldName) {
			return true
		}
	}
	return false
}

// selectsField reports whether fn's body contains a selector
// `expr.fieldName` where expr (after deref) has the named type full.
func selectsField(fn funcDecl, full, fieldName string) bool {
	info := fn.pkg.TypesInfo
	found := false
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != fieldName {
			return true
		}
		tv, ok := info.Types[sel.X]
		if !ok {
			return true
		}
		if named := namedDeref(tv.Type); named != nil && namedFullName(named) == full {
			found = true
			return false
		}
		return true
	})
	return found
}
