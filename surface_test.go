package fedsz

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

// TestRootExportsHaveConsumers is the regrowth gate for the public
// surface: every exported top-level name of the root package must be
// referenced by the non-test code under cmd/ or examples/, or appear in
// the signature of a name that is (a function's parameters and results,
// a type's definition and its exported methods). A name nothing there
// calls is surface without a consumer: delete it.
func TestRootExportsHaveConsumers(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string][]ast.Node{} // exported name -> declaration parts
	var exported []string
	add := func(name string, n ast.Node) {
		if !ast.IsExported(name) {
			return
		}
		if _, seen := decls[name]; !seen {
			exported = append(exported, name)
		}
		decls[name] = append(decls[name], n)
	}
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var methods []*ast.FuncDecl
	for _, path := range root {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name, d.Type)
				} else if d.Name.IsExported() {
					methods = append(methods, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s.Type)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							var typ ast.Node
							if s.Type != nil {
								typ = s.Type
							}
							add(n.Name, typ)
						}
					}
				}
			}
		}
	}
	// An exported method's signature belongs to its receiver's type.
	for _, m := range methods {
		recv := m.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			decls[id.Name] = append(decls[id.Name], m.Type)
		}
	}

	used := map[string]bool{}
	var queue []string
	use := func(name string) {
		if _, ok := decls[name]; ok && !used[name] {
			used[name] = true
			queue = append(queue, name)
		}
	}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, pkg := range rootImportNames(f) {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
							use(sel.Sel.Name)
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Close over signatures: a name in a used name's signature is used.
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, n := range decls[name] {
			if n == nil {
				continue
			}
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					return false // another package's name
				case *ast.Ident:
					use(n.Name)
				}
				return true
			})
		}
	}

	var unused []string
	for _, name := range exported {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("root exports with no consumer under cmd/ or examples/: %s", strings.Join(unused, ", "))
	}
	t.Logf("%d exported root names, all consumed", len(exported))
}

// rootImportNames returns the names under which f imports the root
// package.
func rootImportNames(f *ast.File) []string {
	var names []string
	for _, imp := range f.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err != nil || path != "fedsz" {
			continue
		}
		name := "fedsz"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names = append(names, name)
	}
	return names
}
