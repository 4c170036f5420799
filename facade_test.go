package ktau_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers keeps api.go to the names its callers use.
// Every exported name api.go declares must be written as ktau.<Name> by a
// file under examples/ or cmd/, or by a root _test.go file; a type named in
// the signature of a kept declaration counts as used. The evaluation
// drivers (ktau-exp, ktau-sweep, the root benchmarks) import the internal
// packages they drive, so a name only they would need does not belong here.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	api, err := parser.ParseFile(fset, "api.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// decls maps each exported name to the node whose identifiers are its
	// signature: a function's type, a type's definition, a constant's or
	// variable's declared type.
	decls := map[string]ast.Node{}
	for _, d := range api.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						decls[s.Name.Name] = s.Type
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							decls[n.Name] = s.Type
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, path := range callerFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := facadeImportName(f)
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	// Close over signatures: a kept declaration keeps the facade types it
	// names, and those keep the ones they name.
	work := make([]string, 0, len(used))
	for name := range used {
		work = append(work, name)
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		sig := decls[name]
		if sig == nil {
			continue
		}
		ast.Inspect(sig, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // a qualified name is another package's
			case *ast.Ident:
				if _, ok := decls[n.Name]; ok && !used[n.Name] {
					used[n.Name] = true
					work = append(work, n.Name)
				}
			}
			return true
		})
	}

	var unused []string
	for name := range decls {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("api.go declares %d names no example, command or root test writes as ktau.<Name>: %s",
			len(unused), strings.Join(unused, ", "))
	}
}

// callerFiles lists the Go files whose ktau.<Name> selectors count as
// callers: everything under examples/ and cmd/, and the root _test.go files.
func callerFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// facadeImportName returns the name a file refers to the facade package
// by, or "" when it does not import it.
func facadeImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "ktau" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "ktau"
	}
	return ""
}
