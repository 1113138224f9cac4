// Package census is the fixture of TestCensusFixture: of its exported
// funcs and methods, only Unused has no caller.
package census

import (
	"fmt"
	"io"
)

// Used is called by run.
func Used() int { return 1 }

// Unused is called by nothing.
func Unused() int { return 2 }

// Reader satisfies io.Reader, a named interface of an imported package.
type Reader struct{}

func (Reader) Read([]byte) (int, error) { return 0, io.EOF }

// Anon is reached only through the anonymous interface in run.
type Anon struct{}

func (Anon) Code() string { return "anon" }

// Err is an error that errors.Is compares with its Is method.
type Err struct{}

func (Err) Error() string { return "census: err" }

func (Err) Is(target error) bool { return target == Err{} }

func run(v any) string {
	if c, ok := v.(interface{ Code() string }); ok {
		return c.Code()
	}
	return fmt.Sprint(Used())
}
