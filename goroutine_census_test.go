package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// longLivedGoroutines are the directories whose go statements start a
// loop that outlives any one request: accept and connection loops, a
// connection's handler workers (each serves request after request until
// its connection closes), fake-clock timers and clock.LoopGo, the log
// flusher and the commands' servers. The sim network starts none: it
// answers a call on the caller's goroutine.
var longLivedGoroutines = []string{"internal/transport", "internal/clock", "internal/wal", "cmd"}

// TestGoroutineCensus: on the request path, engine.FanOut is the only
// place that starts goroutines. Every go statement in the non-test code
// of internal/ and cmd/ is inside FanOut or in one of the long-lived
// loops above, so no package hand-rolls a goroutine per target.
func TestGoroutineCensus(t *testing.T) {
	fset := token.NewFileSet()
	helper := false
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			for _, dir := range longLivedGoroutines {
				if strings.HasPrefix(filepath.ToSlash(path), dir+"/") {
					return nil
				}
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Recv == nil && fn.Name.Name == "FanOut" && filepath.ToSlash(filepath.Dir(path)) == "internal/engine" {
					helper = true
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						t.Errorf("%s: go statement outside engine.FanOut: fan out through it instead", fset.Position(g.Pos()))
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
	if !helper {
		t.Fatal("no func FanOut in internal/engine: the census has no helper to allow")
	}
}
