package repro

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The two numbers ROADMAP's ledger tracks (item 5). cmdLineCeiling is the
// gated one: lines of non-test Go in the packages `go list -deps ./cmd/...`
// names: the code a command can execute. allTreeLines is reported, not
// gated: lines of *.go that are not *_test.go and not under benchmarks/
// or a testdata directory.
const (
	cmdLineCeiling = 18327
	allTreeLines   = 21244
)

// cmdDeps runs `go list -deps ./cmd/...` with format over the non-standard
// packages and returns the lines it prints.
func cmdDeps(t *testing.T, format string) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}"+format+"{{end}}", "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/...: %v", err)
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n")
}

func TestNonTestLineCeiling(t *testing.T) {
	cmd := 0
	for _, path := range cmdDeps(t, `{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}`) {
		cmd += lineCount(t, path)
	}
	all := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmarks" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			all += lineCount(t, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("non-test Go outside benchmarks/ is %d lines (ledger: %d)", all, allTreeLines)
	switch {
	case cmd > cmdLineCeiling:
		t.Fatalf("non-test Go a command can execute is %d lines, ceiling %d: delete what the new lines replace, "+
			"or raise cmdLineCeiling in the PR whose CHANGES.md entry justifies them", cmd, cmdLineCeiling)
	case cmd < cmdLineCeiling:
		t.Logf("non-test Go a command can execute is %d lines: lower cmdLineCeiling (%d) to it in this PR", cmd, cmdLineCeiling)
	}
}

// The options ROADMAP's ledger counts (item 5), each gated like
// cmdLineCeiling: the top-level flags each command defines (a
// subcommand's flags, sydcal's -user and the rest, are not counted), the
// fields of every exported struct named Config, *Config or Options in
// the packages a command can execute, and the exported func With* under
// internal/. A knob struct configFieldCeiling does not list fails the
// test, so a new one is declared here with its count.
var (
	flagCeiling        = map[string]int{"sydcal": 1, "syddirectory": 3, "sydnode": 14}
	configFieldCeiling = map[string]int{
		"core.Config":                20,
		"offline.Config":             8,
		"replication.FollowerConfig": 12,
		"replication.PrimaryConfig":  8,
		"wal.Options":                4,
	}
)

const withOptionCeiling = 13

func TestKnobCeiling(t *testing.T) {
	check := func(what string, n, ceiling int) {
		t.Helper()
		switch {
		case n > ceiling:
			t.Errorf("%s: %d, ceiling %d: remove an option the new one replaces, "+
				"or raise the ceiling in the PR whose CHANGES.md entry justifies it", what, n, ceiling)
		case n < ceiling:
			t.Logf("%s: %d: lower the ceiling (%d) to it in this PR", what, n, ceiling)
		}
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cmds {
		if d.IsDir() {
			check("flags of "+d.Name(), countFlags(t, d.Name(), parseDir(t, filepath.Join("cmd", d.Name()))), flagCeiling[d.Name()])
		}
	}
	seen := map[string]bool{}
	for _, dir := range cmdDeps(t, "{{.Dir}}") {
		for _, f := range parseDir(t, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") && ts.Name.Name != "Options" {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				name := f.Name.Name + "." + ts.Name.Name
				seen[name] = true
				if ceiling, ok := configFieldCeiling[name]; ok {
					check(name+" fields", st.Fields.NumFields(), ceiling)
				} else {
					t.Errorf("%s (%d fields) is not in configFieldCeiling: list it in the PR whose CHANGES.md entry justifies it",
						name, st.Fields.NumFields())
				}
				return true
			})
		}
	}
	for name := range configFieldCeiling {
		if !seen[name] {
			t.Errorf("%s is in configFieldCeiling but no command reaches it: drop its entry", name)
		}
	}
	with := 0
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		for _, f := range parseDir(t, path) {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") {
					with++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	check("exported func With* under internal/", with, withOptionCeiling)
}

// parseDir parses the non-test Go files of one directory.
func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// flagDefiners are the flag and FlagSet functions that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// countFlags counts the flags command name defines on the flag
// package's own set or on a flag.NewFlagSet named after the command.
func countFlags(t *testing.T, name string, files []*ast.File) int {
	t.Helper()
	sets := map[string]bool{"flag": true}
	n := 0
	for _, f := range files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.AssignStmt:
				for i, rhs := range node.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || i >= len(node.Lhs) || !isSelector(call.Fun, "flag", "NewFlagSet") || len(call.Args) == 0 {
						continue
					}
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Value == strconv.Quote(name) {
						if id, ok := node.Lhs[i].(*ast.Ident); ok {
							sets[id.Name] = true
						}
					}
				}
			case *ast.CallExpr:
				if sel, ok := node.Fun.(*ast.SelectorExpr); ok && flagDefiners[sel.Sel.Name] {
					if id, ok := sel.X.(*ast.Ident); ok && sets[id.Name] {
						n++
					}
				}
			}
			return true
		})
	}
	return n
}

// isSelector reports whether e is pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

func lineCount(t *testing.T, path string) int {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(src, []byte("\n"))
}
