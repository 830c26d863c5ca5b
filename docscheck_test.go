package evencycle

// Documentation gates, run as part of the tier-1 suite (and therefore in
// CI): every exported symbol of the facade carries a doc comment, every
// internal package has a doc.go package document, the documentation
// surface (docs/ARCHITECTURE.md, EXPERIMENTS.md) exists and is linked
// from the README, and the facade and experiment harness stay below the
// service layer as docs/ARCHITECTURE.md draws it. EXPERIMENTS.md freshness is checked by a separate CI
// step that regenerates it and diffs.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeSymbolsDocumented parses the facade package source and fails
// on any exported top-level symbol (func, method, type, const, var)
// without a doc comment.
func TestFacadeSymbolsDocumented(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["evencycle"]
	if !ok {
		t.Fatalf("facade package not found; parsed %v", pkgs)
	}
	var missing []string
	report := func(pos token.Pos, name string) {
		missing = append(missing, name+" ("+fset.Position(pos).String()+")")
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					report(d.Pos(), "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
							report(s.Pos(), "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(n.Pos(), n.Name)
							}
						}
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Fatalf("exported facade symbols without doc comments:\n  %s",
			strings.Join(missing, "\n  "))
	}
}

// TestFacadeAndHarnessBelowServiceLayer fails if a non-test file of the
// facade or of internal/bench imports the service layer: the facade sits
// on the detectors, the experiment harness reproduces the paper, and only
// cmd/cycleserved serves.
func TestFacadeAndHarnessBelowServiceLayer(t *testing.T) {
	for _, dir := range []string{".", filepath.Join("internal", "bench")} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("no package parsed in %s", dir)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, imp := range file.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						t.Fatal(err)
					}
					if path == "repro/internal/service" || path == "repro/internal/store" {
						t.Errorf("%s imports %s", name, path)
					}
				}
			}
		}
	}
}

// TestInternalPackagesHaveDocFiles requires a doc.go package document in
// every internal package, opening with the conventional "Package <name>"
// sentence.
func TestInternalPackagesHaveDocFiles(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join("internal", name, "doc.go")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("internal package %q has no doc.go: %v", name, err)
			continue
		}
		if !strings.HasPrefix(string(data), "// Package "+name+" ") {
			t.Errorf("%s does not open with %q", path, "// Package "+name)
		}
	}
}

// TestDocumentationSurfaceExists pins the documented artifacts and their
// README links.
func TestDocumentationSurfaceExists(t *testing.T) {
	for _, f := range []string{
		filepath.Join("docs", "ARCHITECTURE.md"),
		"EXPERIMENTS.md",
	} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("missing documentation artifact: %v", err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, link := range []string{"docs/ARCHITECTURE.md", "EXPERIMENTS.md"} {
		if !strings.Contains(string(readme), link) {
			t.Errorf("README.md does not link %s", link)
		}
	}
	arch, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(arch), "DetectDeterministic") {
		t.Error("docs/ARCHITECTURE.md detector matrix lacks the deterministic column")
	}
}
