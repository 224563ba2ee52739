package ortoa

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

// TestBenchmarkShimsHaveCallers keeps the names that remain only because
// the repository benchmark (benchmark/, a module of its own) names them
// alive exactly as long as it does. It parses benchmark/*.go and fails
// for each such name the benchmark no longer references: that shim has
// lost its last caller and is to be deleted with it.
func TestBenchmarkShimsHaveCallers(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("benchmark", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark sources found: %v", err)
	}
	found := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := "" // this file's name for the ortoa package
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "ortoa" {
				pkg = "ortoa"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && pkg != "" && x.Name == pkg {
					found[n.Sel.Name] = true
				}
				if n.Sel.Name == "AggWindow" {
					found["ProxyServeOptions.AggWindow"] = true
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && k.Name == "AggWindow" {
					found["ProxyServeOptions.AggWindow"] = true
				}
			case *ast.CallExpr:
				// core.LBLProxy.Access(op, key, value): the benchmark's one
				// three-argument Access call. The parse has no types, so
				// the method is known by its name and arity.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Access" && len(n.Args) == 3 {
					found["LBLProxy.Access"] = true
				}
			}
			return true
		})
	}
	for _, shim := range []string{"ProxyOptions", "DialProxyOptions", "ProxyServeOptions.AggWindow", "LBLProxy.Access"} {
		if !found[shim] {
			t.Errorf("benchmark/ no longer references %s, which remains only because the benchmark named it: delete the shim", shim)
		}
	}
}
