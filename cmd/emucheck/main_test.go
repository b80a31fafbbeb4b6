package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emucheck/internal/golden"
	"emucheck/internal/scenario"
)

// TestRunJUnitGolden pins the XML `emucheck run -junit` writes for a
// shipped example scenario, byte for byte. Every field in the output —
// verdict, simulated-seconds time attribute, classname — is derived
// from the deterministic run, so the golden is stable across machines;
// a diff here means either the run changed or the JUnit shape drifted.
// Regenerate deliberately with `go test ./cmd/emucheck -update`.
func TestRunJUnitGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "swapcycle.json"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	// The source path is part of the classname attribute, so the test
	// passes the path the CLI would see from the repo root. Two workers
	// run the scenario's run + replay pair concurrently; the golden
	// comparison doubles as the byte-identity check for that path.
	got, rr, err := junitReport(f, "examples/scenarios/swapcycle.json", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Error != "" || !rr.Pass {
		t.Fatalf("swapcycle example failed under suite invariants: %+v", rr)
	}
	golden.Check(t, filepath.Join("testdata", "junit.golden"), got)
}

// TestRunJSONGolden pins `emucheck run -json` for every example
// scenario: each must pass (exit 0) and print exactly its golden.
func TestRunJSONGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			if code := cli([]string{"run", "-json", p}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			golden.Check(t, filepath.Join("testdata", "run", name+".golden"), stdout.Bytes())
		})
	}
}

// TestCLIExitCodes: usage errors exit 2, unreadable or invalid files 1.
func TestCLIExitCodes(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "bad", "bogus_field": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"frobnicate"}, 2},
		{[]string{"evalrun"}, 2},
		{[]string{"run"}, 2},
		{[]string{"run", "-no-such-flag", "x.json"}, 2},
		{[]string{"validate", filepath.Join(t.TempDir(), "absent.json")}, 1},
		{[]string{"run", bad}, 1},
		{[]string{"validate", filepath.Join("..", "..", "examples", "scenarios", "timeshare.json")}, 0},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("emucheck %v: exit %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr.String())
		}
	}
}
