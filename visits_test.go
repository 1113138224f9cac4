package repro

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The visit rule: a store visit (Table.View, ViewEq, ViewAll; Tx.View,
// ViewEq) hands its callback the stored row itself, under the table's
// read lock, so the callback may read the row but must not keep it. The
// check below reads every visit whose callback is a function literal in
// the shipped code, and reports a row stored where it outlives the
// call: in a variable the literal captures (an append to a captured
// slice included), a field, a map or a slice element, a channel, or a
// goroutine. A local of the literal that holds the row, or a composite
// literal, append, & or * of it, holds the row too; a method call on it
// (r.Str(), r.Clone()) is a read.

// TestVisitedRowsStayInTheVisit holds the module's shipped code to the
// visit rule.
func TestVisitedRowsStayInTheVisit(t *testing.T) {
	c, paths, err := checkPackages([]string{"."})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range visitEscapes(c, paths, "repro/internal/store") {
		t.Errorf("%s keeps the row its visit was handed", e)
	}
}

// TestVisitRuleFixture runs the check over testdata/visitrule, whose
// lines marked "want: <how>" each keep their visit's row.
func TestVisitRuleFixture(t *testing.T) {
	dir := filepath.Join("testdata", "visitrule")
	c, paths, err := checkPackages([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	got := visitEscapes(c, paths, "visitrule/store")
	text, err := os.ReadFile(filepath.Join(dir, "visits.go"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	marker := regexp.MustCompile(`// want: (\w+)$`)
	for i, line := range strings.Split(string(text), "\n") {
		if m := marker.FindStringSubmatch(line); m != nil {
			want = append(want, fmt.Sprintf("%s:%d: %s", filepath.Join(dir, "visits.go"), i+1, m[1]))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("visit escapes in %s:\n got %q\nwant %q", dir, got, want)
	}
}

// visitEscapes returns, sorted, "file:line: how" for each statement of
// the packages at paths that keeps a row a visit of the store package
// at storePath handed its callback.
func visitEscapes(c *census, paths []string, storePath string) []string {
	var out []string
	for _, path := range paths {
		for _, f := range c.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isVisit(c.info, call, storePath) {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						out = append(out, litEscapes(c, lit)...)
					}
				}
				return true
			})
		}
	}
	slices.Sort(out)
	return out
}

// isVisit reports whether call calls a visit method of storePath's
// Table or Tx.
func isVisit(info *types.Info, call *ast.CallExpr, storePath string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != storePath {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false // an interface's method
	}
	switch named.Obj().Name() + "." + fn.Name() {
	case "Table.View", "Table.ViewEq", "Table.ViewAll", "Tx.View", "Tx.ViewEq":
		return true
	}
	return false
}

// litEscapes reports where the body of lit, a visit's callback, keeps
// the row it takes.
func litEscapes(c *census, lit *ast.FuncLit) []string {
	params := lit.Type.Params.List
	if len(params) != 1 || len(params[0].Names) != 1 {
		return nil // the row is unnamed: nothing can keep it
	}
	e := &escapes{c: c, lit: lit, holds: map[types.Object]bool{c.info.Defs[params[0].Names[0]]: true}}
	ast.Inspect(lit.Body, e.visit)
	return e.found
}

// escapes walks one callback's body in source order; holds is the row
// and each local of the literal that holds it.
type escapes struct {
	c     *census
	lit   *ast.FuncLit
	holds map[types.Object]bool
	found []string
}

func (e *escapes) report(at token.Pos, how string) {
	p := e.c.fset.Position(at)
	file := p.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, file); err == nil {
			file = rel
		}
	}
	e.found = append(e.found, fmt.Sprintf("%s:%d: %s", file, p.Line, how))
}

func (e *escapes) visit(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				if e.flows(s.Rhs[i]) {
					e.store(lhs, s.Rhs[i])
				}
			}
		}
	case *ast.ValueSpec:
		for i, name := range s.Names {
			if i < len(s.Values) && e.flows(s.Values[i]) {
				e.holds[e.c.info.Defs[name]] = true
			}
		}
	case *ast.SendStmt:
		if e.flows(s.Value) {
			e.report(s.Pos(), "channel")
		}
	case *ast.GoStmt:
		// The goroutine keeps what its function refers to and the
		// arguments it is handed; a read in an argument is done first.
		refers := false
		ast.Inspect(s.Call.Fun, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			refers = refers || ok && e.holds[e.c.info.Uses[id]]
			return !refers
		})
		if refers || slices.ContainsFunc(s.Call.Args, e.flows) {
			e.report(s.Pos(), "go")
		}
	}
	return true
}

// store records that lhs is assigned rhs, which holds the row.
func (e *escapes) store(lhs, rhs ast.Expr) {
	how := "captured"
	if call, ok := rhs.(*ast.CallExpr); ok && e.isAppend(call) {
		how = "append"
	}
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := e.c.info.Defs[x]
		if obj == nil {
			obj = e.c.info.Uses[x]
		}
		switch {
		case obj == nil: // the blank identifier
		case e.inLit(obj):
			e.holds[obj] = true // a local of the callback now holds it
		default:
			e.report(lhs.Pos(), how)
		}
	case *ast.SelectorExpr:
		e.report(lhs.Pos(), "field")
	case *ast.IndexExpr:
		if _, ok := e.c.info.TypeOf(x.X).Underlying().(*types.Map); ok {
			e.report(lhs.Pos(), "map")
		} else {
			e.report(lhs.Pos(), "element")
		}
	default:
		e.report(lhs.Pos(), "captured")
	}
}

// flows reports whether x's value holds the row.
func (e *escapes) flows(x ast.Expr) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return e.holds[e.c.info.Uses[x]]
	case *ast.UnaryExpr:
		return x.Op == token.AND && e.flows(x.X)
	case *ast.StarExpr:
		return e.flows(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if e.flows(el) {
				return true
			}
		}
	case *ast.CallExpr:
		if e.isAppend(x) {
			return slices.ContainsFunc(x.Args, e.flows)
		}
	}
	return false
}

func (e *escapes) isAppend(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := e.c.info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// inLit reports whether obj is declared inside the callback.
func (e *escapes) inLit(obj types.Object) bool {
	return obj.Pos() >= e.lit.Pos() && obj.Pos() < e.lit.End()
}
