package streamdag

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// rootDoc parses the package's non-test sources into their go/doc form.
func rootDoc(t *testing.T) *doc.Package {
	t.Helper()
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "streamdag")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestExportedNamesDocumented requires a doc comment on every exported
// name of the package: types, functions, methods, and each const or var
// (its group's comment counts).
func TestExportedNamesDocumented(t *testing.T) {
	pkg := rootDoc(t)
	undocumented := func(kind, name, text string) {
		if strings.TrimSpace(text) == "" {
			t.Errorf("%s %s has no doc comment", kind, name)
		}
	}
	values := func(groups []*doc.Value) {
		for _, g := range groups {
			for _, spec := range g.Decl.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, id := range vs.Names {
					if id.IsExported() && g.Doc == "" && vs.Doc.Text() == "" && vs.Comment.Text() == "" {
						t.Errorf("%s has no doc comment", id.Name)
					}
				}
			}
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	for _, f := range pkg.Funcs {
		undocumented("func", f.Name, f.Doc)
	}
	for _, typ := range pkg.Types {
		undocumented("type", typ.Name, typ.Doc)
		values(typ.Consts)
		values(typ.Vars)
		for _, f := range typ.Funcs {
			undocumented("func", f.Name, f.Doc)
		}
		for _, m := range typ.Methods {
			undocumented("method", typ.Name+"."+m.Name, m.Doc)
		}
	}
}

// TestOptionsAndStageMethodsShown requires every exported package-level
// function — Build options (With*/Without*) and the constructors go/doc
// files under their result types included —, every Stage method and
// every exported method to appear in README.md or in an example program,
// so no entry point exists that no reader is shown.  A method counts as
// shown when "Name(" follows a "." or starts a line (chained-call
// style).  Methods that implement an interface the package defines or
// the standard library's error — Error, Emit, EmitSpan, Next, NextSpan,
// Rewind and Process* — are called by the engine, not by readers, and
// are exempt.
func TestOptionsAndStageMethodsShown(t *testing.T) {
	var shown []string
	paths, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append([]string{"README.md"}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		shown = append(shown, string(b))
	}
	text := strings.Join(shown, "\n")
	pkg := rootDoc(t)
	funcs := pkg.Funcs
	for _, typ := range pkg.Types {
		funcs = append(funcs, typ.Funcs...)
		if typ.Name != "Stage" {
			continue
		}
		it := typ.Decl.Specs[0].(*ast.TypeSpec).Type.(*ast.InterfaceType)
		for _, m := range it.Methods.List {
			for _, id := range m.Names {
				if id.IsExported() && !strings.Contains(text, "."+id.Name+"(") {
					t.Errorf("Stage.%s appears in neither README.md nor an example", id.Name)
				}
			}
		}
	}
	if len(funcs) == 0 {
		t.Fatal("found no functions")
	}
	for _, f := range funcs {
		if !regexp.MustCompile(`\b` + f.Name + `\b`).MatchString(text) {
			t.Errorf("func %s appears in neither README.md nor an example", f.Name)
		}
	}
	exempt := regexp.MustCompile(`^(Error|Emit|EmitSpan|Next|NextSpan|Rewind|Process.*)$`)
	for _, typ := range pkg.Types {
		for _, m := range typ.Methods {
			if exempt.MatchString(m.Name) {
				continue
			}
			if !regexp.MustCompile(`(?m)(\.|^\s*)` + m.Name + `\(`).MatchString(text) {
				t.Errorf("method %s.%s appears in neither README.md nor an example", typ.Name, m.Name)
			}
		}
	}
}
