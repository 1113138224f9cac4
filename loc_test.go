package repro

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// nonTestLineCeiling is the number ROADMAP's ledger tracks (item 5):
// lines of *.go that are not *_test.go and not under benchmarks/.
const nonTestLineCeiling = 23047

func TestNonTestLineCeiling(t *testing.T) {
	total := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmarks" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += bytes.Count(src, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case total > nonTestLineCeiling:
		t.Fatalf("non-test Go outside benchmarks/ is %d lines, ceiling %d: delete what the new lines replace, "+
			"or raise nonTestLineCeiling in the PR whose CHANGES.md entry justifies them", total, nonTestLineCeiling)
	case total < nonTestLineCeiling:
		t.Logf("non-test Go outside benchmarks/ is %d lines: lower nonTestLineCeiling (%d) to it in this PR", total, nonTestLineCeiling)
	}
}
