package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"emucheck/internal/golden"
)

// TestQuickJSONGolden pins `benchrunner -quick -json` for each key, one
// golden per key. Every value is simulated, so any drift — a moved
// digest, a recalibrated figure — fails here and shows as the golden
// diff. The keys come from outputs, cli's one registry, so a new
// output cannot escape a golden; they run as parallel subtests, and
// figs 6 and 7 dominate.
func TestQuickJSONGolden(t *testing.T) {
	for _, key := range benchKeys() {
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			args := []string{"-quick", "-json", "-table", key}
			if n, ok := strings.CutPrefix(key, "fig"); ok {
				args = []string{"-quick", "-json", "-fig", n}
			}
			var stdout, stderr bytes.Buffer
			if code := cli(args, &stdout, &stderr); code != 0 {
				t.Fatalf("benchrunner %v: exit %d, stderr: %s", args, code, stderr.String())
			}
			golden.Check(t, filepath.Join("testdata", "quick", key+".golden"), stdout.Bytes())
		})
	}
}
