package repro

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// shippedWithoutCaller is the census of exported funcs and methods in the
// packages cmdLineCeiling counts that no non-test file of this module or
// of benchmarks/ uses. Each is tagged with why it stays shipped:
//   - "paper §…": an operation the paper defines that no command reaches
//     yet; DESIGN.md ("Library operations no command reaches") lists them.
//   - "hook: …": a test helper that the tests of two or more other
//     packages call.
//
// Anything else that no shipped code calls is deleted, or moves into the
// test files of the one package that uses it.
var shippedWithoutCaller = map[string]string{
	"calendar.NewCommittee":                               "paper §3.2: Calendars_of_committee_SyDAppC",
	"calendar.Committee.Name":                             "paper §3.2: the SyDAppO's name",
	"calendar.Committee.Members":                          "paper §3.2: the SyDAppO's member set",
	"calendar.Committee.FindEarliestMeetingTime":          "paper §3.2: Find_earliest_meeting_time()",
	"calendar.Committee.ScheduleEarliest":                 "paper §3.2: Find_earliest_meeting_time() then reserve",
	"calendar.Committee.ChangeMeetingTimeToNextAvailable": "paper §3.2: Change_meeting_time_to_next_available()",
	"calendar.Committee.FreeBusyMatrix":                   "paper §5: the committee view a GUI renders",
	"calendar.Calendar.Delegate":                          "paper §5: scheduling-authority transfer",
	"calendar.Calendar.DropOut":                           "paper §1: remove oneself from a meeting",
	"calendar.Calendar.CancelOrQueue":                     "paper §5.2: cancel while disconnected",
	"auth.NewAuthenticator":                               "paper §5.4: TEA credentials (no command sets core.Config.Auth)",
	"auth.Table.Add":                                      "paper §5.4: the device's table of authorized users",
	"auth.Table.Remove":                                   "paper §5.4: the device's table of authorized users",
	"auth.Table.Len":                                      "paper §5.4: the device's table of authorized users",
	"engine.Engine.SetCredential":                         "paper §5.4: the TEA-sealed credential on every request",

	"clock.Fake.Advance":             "hook: calendar, core, directory, engine, event, links, replication and sim tests move fake time",
	"clock.Fake.PendingWaiters":      "hook: calendar, core, engine, event, links and sim tests wait for sleepers",
	"directory.Client.LookupService": "hook: cmd/sydnode, core, e2e, listener and root tests read a published service",
	"directory.Client.ServicesOf":    "hook: core and e2e tests list what a user publishes",
	"links.Manager.SetCommitFault":   "hook: calendar and replication tests crash a coordinator between commits",
	"metrics.Snapshot.Find":          "hook: core, engine, listener and offline tests read one metrics series",
}

func TestShippedExportsHaveCallers(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f", `{{if not .Standard}}{{.ImportPath}}{{end}}`, "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/...: %v", err)
	}
	shipped := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		shipped[p] = true
	}
	unused, err := unusedExports([]string{".", "benchmarks"}, shipped)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, name := range unused {
		found[name] = true
		tag, ok := shippedWithoutCaller[name]
		switch {
		case !ok:
			t.Errorf("%s is exported and shipped, but no non-test code uses it: call it, delete it, "+
				"or move it into the test files that use it", name)
		case !strings.HasPrefix(tag, "paper §") && !strings.HasPrefix(tag, "hook: "):
			t.Errorf("%s: tag %q is neither \"paper §…\" nor \"hook: …\"", name, tag)
		}
	}
	for name := range shippedWithoutCaller {
		if !found[name] {
			t.Errorf("%s is listed in shippedWithoutCaller but is no longer an unused shipped export: drop its entry", name)
		}
	}
	t.Logf("%d shipped exports without a shipped caller", len(unused))
}

// TestCensusFixture runs the census over testdata/census, whose only
// unused export is census.Unused.
func TestCensusFixture(t *testing.T) {
	unused, err := unusedExports([]string{filepath.Join("testdata", "census")}, map[string]bool{"census": true})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"census.Unused"}; !slices.Equal(unused, want) {
		t.Fatalf("census of testdata/census = %v, want %v", unused, want)
	}
}

// conventionMethods are the methods the standard library calls by name:
// errors.Is/As/Unwrap and fmt's String and Format.
var conventionMethods = map[string]bool{"Is": true, "As": true, "Unwrap": true, "String": true, "Format": true}

// listedPackage is what `go list -json` says of one package.
type listedPackage struct {
	ImportPath, Dir string
	GoFiles         []string
}

// unusedExports type-checks the packages of dirs (checkPackages), and
// returns, sorted, each exported func or method of the shipped packages
// whose object no checked file uses. A method that implements an
// interface method (a named interface of any checked or imported
// package, or an interface type written in a checked file), or that the
// standard library calls by convention, counts as used.
func unusedExports(dirs []string, shipped map[string]bool) ([]string, error) {
	c, paths, err := checkPackages(dirs)
	if err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	for _, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
	}
	ifaces := c.interfaces()
	var unused []string
	for _, path := range paths {
		if !shipped[path] {
			continue
		}
		pkg := c.checked[path]
		for _, fn := range c.exportedFuncs[path] {
			if used[fn] {
				continue
			}
			name := pkg.Name() + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				named := derefNamed(recv.Type())
				if conventionMethods[fn.Name()] || implementsAny(named, fn.Name(), ifaces) {
					continue
				}
				name = pkg.Name() + "." + named.Obj().Name() + "." + fn.Name()
			}
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// checkPackages type-checks the non-test files of every package `go list
// ./...` names in each of dirs, and returns the census that holds them
// and their import paths, sorted.
func checkPackages(dirs []string) (*census, []string, error) {
	listed := map[string]*listedPackage{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-json", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("go list ./... in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(strings.NewReader(string(out))); dec.More(); {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				return nil, nil, err
			}
			listed[p.ImportPath] = &p
		}
	}
	c := &census{
		fset:          token.NewFileSet(),
		listed:        listed,
		checked:       map[string]*types.Package{},
		exportedFuncs: map[string][]*types.Func{},
		files:         map[string][]*ast.File{},
		std:           importer.Default(),
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	paths := make([]string, 0, len(listed))
	for path := range listed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := c.Import(path); err != nil {
			return nil, nil, err
		}
	}
	return c, paths, nil
}

// census type-checks listed packages on demand, each once, with one
// types.Info for all of them, and the standard library from export data.
type census struct {
	fset          *token.FileSet
	listed        map[string]*listedPackage
	checked       map[string]*types.Package
	exportedFuncs map[string][]*types.Func
	files         map[string][]*ast.File // each checked package's, by path
	std           types.Importer
	info          *types.Info
}

func (c *census) Import(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	lp, ok := c.listed[path]
	if !ok {
		return c.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(lp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	c.checked[path] = pkg
	c.files[path] = files
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				c.exportedFuncs[path] = append(c.exportedFuncs[path], c.info.Defs[fn.Name].(*types.Func))
			}
		}
	}
	return pkg, nil
}

// interfaces returns error, every interface type written in a checked
// file, and every named interface of a checked package or of a package
// one imports, directly or not.
func (c *census) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, tv := range c.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			ifaces = append(ifaces, it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range c.checked {
		walk(pkg)
	}
	return ifaces
}

// implementsAny reports whether a pointer to named (whose method set
// holds named's own) implements an interface among ifaces that has a
// method called method.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}
