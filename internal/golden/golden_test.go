package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a T that keeps the failure message instead of stopping.
type recorder struct{ msg string }

func (r *recorder) Helper() {}
func (r *recorder) Fatalf(format string, args ...any) {
	if r.msg == "" {
		r.msg = fmt.Sprintf(format, args...)
	}
}

func TestCheckNamesFileAndFirstDifferingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.golden")
	if err := os.WriteFile(path, []byte("a\nb\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var r recorder
	Check(&r, path, []byte("a\nb\nc\n"))
	if r.msg != "" {
		t.Fatalf("equal bytes failed: %s", r.msg)
	}
	for _, tc := range []struct {
		got, line, lines string
	}{
		{"a\nB\nc\n", "line 2 ", "\n got: B\nwant: b"},
		{"a\nb\n", "line 3 ", "\n got: \nwant: c"},
		{"a\nb\nc\nd\n", "line 4 ", "\n got: d\nwant: "},
	} {
		var r recorder
		Check(&r, path, []byte(tc.got))
		for _, want := range []string{path, tc.line, tc.lines} {
			if !strings.Contains(r.msg, want) {
				t.Fatalf("got %q: message %q lacks %q", tc.got, r.msg, want)
			}
		}
	}
}

func TestCheckMissingFile(t *testing.T) {
	var r recorder
	Check(&r, filepath.Join(t.TempDir(), "absent.golden"), []byte("x"))
	if !strings.Contains(r.msg, "-update") {
		t.Fatalf("missing golden message %q does not mention -update", r.msg)
	}
}
