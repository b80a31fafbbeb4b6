package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"emucheck/internal/evalrun"
	"emucheck/internal/golden"
)

// benchSchema maps every figure/table key benchrunner can emit to the
// result type marshaled under it. Each key gets its field paths pinned
// here and its -quick -json value pinned by TestQuickJSONGolden; an
// output added to cli() must be registered here to be pinned at all.
var benchSchema = map[string]any{
	"fig4":       &evalrun.Fig4Result{},
	"fig5":       &evalrun.Fig5Result{},
	"fig6":       &evalrun.Fig6Result{},
	"fig7":       &evalrun.Fig7Result{},
	"fig8":       &evalrun.Fig8Result{},
	"fig9":       &evalrun.Fig9Result{},
	"swap":       &evalrun.SwapTableResult{},
	"freeblock":  &evalrun.FreeBlockResult{},
	"sync":       &evalrun.SyncResult{},
	"dom0":       &evalrun.Dom0JobsResult{},
	"ablation":   &evalrun.AblationResult{},
	"timeshare":  &evalrun.TimeshareResult{},
	"branch":     &evalrun.BranchResult{},
	"recovery":   &evalrun.RecoveryResult{},
	"remediate":  &evalrun.RemediateResult{},
	"storage":    &evalrun.StorageResult{},
	"scale":      &evalrun.ScaleResult{},
	"suite":      &evalrun.SuiteResult{},
	"federation": &evalrun.FederationResult{},
}

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

// benchKeys returns the registry's keys in sorted order.
func benchKeys() []string {
	keys := make([]string, 0, len(benchSchema))
	for k := range benchSchema {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBenchJSONGoldenShape pins the -json schema: the flattened
// field paths of every emitted result type must match the committed
// golden. Regenerate deliberately with `go test ./cmd/benchrunner
// -update` when the schema is meant to change.
func TestBenchJSONGoldenShape(t *testing.T) {
	var lines []string
	for _, k := range benchKeys() {
		var paths []string
		fieldPaths(k, reflect.TypeOf(benchSchema[k]), &paths)
		sort.Strings(paths)
		lines = append(lines, paths...)
	}
	got := strings.Join(lines, "\n") + "\n"

	golden.Check(t, filepath.Join("testdata", "bench_schema.golden"), []byte(got))
}
