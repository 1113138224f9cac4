package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusalCensus: outside this package, shipped code raises a
// conflict only through Refuse, so every refusal names its Reason. A
// &wire.RemoteError{Code: wire.CodeConflict, ...} literal in a non-test
// file under internal/ or cmd/ fails the census.
func TestRefusalCensus(t *testing.T) {
	var found []string
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if filepath.Base(path) == "wire" || filepath.Base(path) == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			found = append(found, conflictLiterals(t, path)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(found) > 0 {
		t.Fatalf("CodeConflict RemoteError literals; raise them with wire.Refuse and a Reason:\n  %s",
			strings.Join(found, "\n  "))
	}
}

// conflictLiterals lists the positions of the wire.RemoteError literals
// in the file at path whose Code is wire.CodeConflict.
func conflictLiterals(t *testing.T, path string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !isSelector(lit.Type, "wire", "RemoteError") {
			return true
		}
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok && isIdent(kv.Key, "Code") && isSelector(kv.Value, "wire", "CodeConflict") {
				out = append(out, fset.Position(lit.Pos()).String())
			}
		}
		return true
	})
	return out
}

func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && isIdent(sel.X, pkg) && sel.Sel.Name == name
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
