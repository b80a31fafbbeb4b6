// Package golden pins test output to committed files. Check compares
// the bytes a test produced with a file under the test's testdata/
// directory; `go test <pkg> -update` rewrites the files instead. A
// golden diff is how a change that moves a simulated output shows its
// re-baseline for review.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
)

// update is the repository's one -update flag: every test package that
// compares against goldens imports this package and so accepts it.
var update = flag.Bool("update", false, "rewrite golden files instead of comparing against them")

// T is the part of testing.TB that Check needs.
type T interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Check fails t unless got byte-equals the file at path. Under -update
// it writes got to path (creating directories) and passes. On a
// mismatch it names the file and the first line that differs.
func Check(t T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("golden: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	line, g, w := firstDiff(got, want)
	t.Fatalf("%s differs at line %d (regenerate with -update if the change is intended):\n got: %s\nwant: %s",
		path, line, g, w)
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, and both versions of that line ("<EOF>" past the end).
func firstDiff(got, want []byte) (int, string, string) {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; ; i++ {
		g, w := "<EOF>", "<EOF>"
		if i < len(gl) {
			g = string(gl[i])
		}
		if i < len(wl) {
			w = string(wl[i])
		}
		if g != w {
			return i + 1, g, w
		}
	}
}
