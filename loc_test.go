package repro

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The two numbers ROADMAP's ledger tracks (item 5). cmdLineCeiling is the
// gated one: lines of non-test Go in the packages `go list -deps ./cmd/...`
// names: the code a command can execute. allTreeLines is reported, not
// gated: lines of *.go that are not *_test.go and not under benchmarks/.
const (
	cmdLineCeiling = 19112
	allTreeLines   = 21962
)

func TestNonTestLineCeiling(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f",
		`{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}`, "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/...: %v", err)
	}
	cmd := 0
	for _, path := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		cmd += lineCount(t, path)
	}
	all := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmarks" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
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

func lineCount(t *testing.T, path string) int {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(src, []byte("\n"))
}
