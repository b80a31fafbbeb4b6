package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"emucheck/internal/golden"
)

// fieldPaths flattens a type into "path: kind" lines, honoring json
// tags, so any rename, removal, or retyping of a marshaled field shows
// up as a schema diff.
func fieldPaths(prefix string, t reflect.Type, out *[]string) {
	switch t.Kind() {
	case reflect.Ptr:
		fieldPaths(prefix, t.Elem(), out)
	case reflect.Slice, reflect.Array:
		fieldPaths(prefix+"[]", t.Elem(), out)
	case reflect.Map:
		fieldPaths(prefix+"{}", t.Elem(), out)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				continue // unexported: not marshaled
			}
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			if tag == "-" {
				continue
			}
			name := tag
			if name == "" {
				name = f.Name
			}
			p := name
			if prefix != "" {
				p = prefix + "." + name
			}
			fieldPaths(p, f.Type, out)
		}
	default:
		*out = append(*out, fmt.Sprintf("%s: %s", prefix, t.Kind()))
	}
}

// benchKeys returns the keys of cli's output registry in sorted order.
func benchKeys() []string {
	var keys []string
	for _, o := range outputs(1, true, 4) {
		keys = append(keys, o.key)
	}
	sort.Strings(keys)
	return keys
}

// TestBenchJSONGoldenShape pins the -json schema: the flattened
// field paths of every emitted result type must match the committed
// golden. Regenerate deliberately with `go test ./cmd/benchrunner
// -update` when the schema is meant to change.
func TestBenchJSONGoldenShape(t *testing.T) {
	outs := outputs(1, true, 4)
	sort.Slice(outs, func(i, j int) bool { return outs[i].key < outs[j].key })
	var lines []string
	for _, o := range outs {
		var paths []string
		fieldPaths(o.key, o.typ, &paths)
		sort.Strings(paths)
		lines = append(lines, paths...)
	}
	got := strings.Join(lines, "\n") + "\n"

	golden.Check(t, filepath.Join("testdata", "bench_schema.golden"), []byte(got))
}
