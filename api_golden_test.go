package bulkgcd

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the public-API golden file")

// TestPublicAPIGolden locks the package's exported surface: every
// exported function, method, type (with its exported fields), constant
// and variable is rendered from the parsed source and compared against
// testdata/public_api.golden. An intentional API change regenerates the
// file with `go test -run TestPublicAPIGolden -update`; an accidental
// one fails CI with a diff-able mismatch.
func TestPublicAPIGolden(t *testing.T) {
	got := renderPublicAPI(t, ".")
	goldenPath := filepath.Join("testdata", "public_api.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Fatalf("public API changed; if intentional, regenerate with -update.\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// deprecatedAllowed lists the only exported names that may carry a
// "Deprecated:" doc marker: the kernel-selection shims the repository
// benchmark (bench/probe.go) still calls. Every other retired name is
// deleted, not deprecated.
var deprecatedAllowed = map[string]bool{
	"Kernel": true, "KernelScalar": true, "KernelLanes": true, "WithKernel": true,
}

// TestDeprecatedAllowlist keeps retired shims from creeping back into the
// public surface: any exported declaration (function, method, type,
// struct field, constant, variable) whose doc carries a "Deprecated:"
// marker must be on deprecatedAllowed, and every allowlisted name must
// still be deprecated — so deleting a shim also shrinks the list.
func TestDeprecatedAllowlist(t *testing.T) {
	_, pkg := parsePackage(t, ".", parser.ParseComments)
	deprecated := map[string]bool{}
	check := func(name string, docs ...*ast.CommentGroup) {
		for _, d := range docs {
			if d != nil && strings.Contains(d.Text(), "Deprecated:") {
				deprecated[name] = true
			}
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && exportedRecv(d.Recv) {
					check(d.Name.Name, d.Doc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						check(s.Name.Name, d.Doc, s.Doc, s.Comment)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								for _, n := range f.Names {
									if n.IsExported() {
										check(s.Name.Name+"."+n.Name, f.Doc, f.Comment)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								check(n.Name, d.Doc, s.Doc, s.Comment)
							}
						}
					}
				}
			}
		}
	}
	for name := range deprecated {
		if !deprecatedAllowed[name] {
			t.Errorf("%s is marked Deprecated: delete it instead of carrying a shim", name)
		}
	}
	for name := range deprecatedAllowed {
		if !deprecated[name] {
			t.Errorf("allowlisted %s is no longer deprecated: drop it from deprecatedAllowed", name)
		}
	}
}

// parsePackage parses the non-test files of package bulkgcd in dir.
func parsePackage(t *testing.T, dir string, mode parser.Mode) (*token.FileSet, *ast.Package) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, mode)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["bulkgcd"]
	if !ok {
		t.Fatalf("package bulkgcd not found in %s", dir)
	}
	return fset, pkg
}

// renderPublicAPI parses the package in dir (tests excluded) and renders
// its exported declarations as sorted, comment-free source snippets.
func renderPublicAPI(t *testing.T, dir string) string {
	t.Helper()
	fset, pkg := parsePackage(t, dir, 0)
	var lines []string
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			for _, snip := range renderDecl(t, fset, decl) {
				lines = append(lines, snip)
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n\n") + "\n"
}

// renderDecl renders one top-level declaration's exported parts, or
// nothing when the declaration is unexported.
func renderDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) []string {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedRecv(d.Recv) {
			return nil
		}
		cp := *d
		cp.Body = nil
		cp.Doc = nil
		return []string{render(t, fset, &cp)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				cp := *s
				cp.Doc, cp.Comment = nil, nil
				if st, ok := cp.Type.(*ast.StructType); ok {
					cp.Type = exportedStruct(st)
				}
				out = append(out, render(t, fset, &ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{&cp}}))
			case *ast.ValueSpec:
				if len(s.Names) == 0 || !s.Names[0].IsExported() {
					continue
				}
				cp := *s
				cp.Doc, cp.Comment = nil, nil
				out = append(out, render(t, fset, &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{&cp}}))
			}
		}
		return out
	}
	return nil
}

// exportedRecv reports whether a method receiver names an exported type
// (a nil receiver is a plain function and counts as exported).
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return true
	}
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}

// exportedStruct strips unexported fields (and all field comments) so
// the golden file tracks only the public shape.
func exportedStruct(st *ast.StructType) *ast.StructType {
	fields := &ast.FieldList{}
	for _, f := range st.Fields.List {
		cp := *f
		cp.Doc, cp.Comment = nil, nil
		if len(cp.Names) == 0 {
			// Embedded field: keep when the embedded type is exported.
			typ := cp.Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if sel, ok := typ.(*ast.SelectorExpr); ok {
				typ = sel.Sel
			}
			if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
				fields.List = append(fields.List, &cp)
			}
			continue
		}
		var names []*ast.Ident
		for _, n := range cp.Names {
			if n.IsExported() {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			continue
		}
		cp.Names = names
		fields.List = append(fields.List, &cp)
	}
	return &ast.StructType{Struct: st.Struct, Fields: fields}
}

func render(t *testing.T, fset *token.FileSet, node any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, node); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
