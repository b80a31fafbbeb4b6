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

// run invokes the CLI seam capturing both streams.
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := cli(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// passingScenario completes ~300 sleeploop ticks in 30 simulated
// seconds; failingScenario demands a tick count no 30s run can reach.
const passingScenario = `{
  "name": "tiny-pass",
  "seed": 3,
  "pool": 1,
  "policy": "fifo",
  "run_for": "30s",
  "experiments": [
    {"name": "e1", "workload": "sleeploop", "nodes": [{"name": "e1a"}]}
  ],
  "assertions": [
    {"type": "min_ticks", "target": "e1", "value": 100},
    {"type": "state", "target": "e1", "want": "running"}
  ]
}`

const failingScenario = `{
  "name": "tiny-fail",
  "seed": 3,
  "pool": 1,
  "policy": "fifo",
  "run_for": "30s",
  "experiments": [
    {"name": "e1", "workload": "sleeploop", "nodes": [{"name": "e1a"}]}
  ],
  "assertions": [
    {"type": "min_ticks", "target": "e1", "value": 1000000}
  ]
}`

func writeScenario(t *testing.T, dir, name, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCLIBadFlagExitsTwo(t *testing.T) {
	code, _, stderr := run(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "flag") {
		t.Fatalf("stderr lacks usage/flag diagnostics: %q", stderr)
	}
}

func TestCLIEmptyDirFails(t *testing.T) {
	code, _, stderr := run(t, "-dir", t.TempDir())
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "no scenario files") {
		t.Fatalf("stderr = %q, want a no-scenario-files error", stderr)
	}
}

func TestCLIUnparsableScenarioFails(t *testing.T) {
	dir := t.TempDir()
	writeScenario(t, dir, "bad.json", `{"name": "bad", "bogus_field": 1}`)
	code, _, stderr := run(t, "-dir", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "bad.json") {
		t.Fatalf("stderr = %q, want the offending path", stderr)
	}
}

// TestCLIDirCorpus: a directory corpus with one failing scenario exits
// nonzero and names the failure; an all-green corpus exits zero.
func TestCLIDirCorpus(t *testing.T) {
	dir := t.TempDir()
	writeScenario(t, dir, "a-pass.json", passingScenario)
	writeScenario(t, dir, "b-fail.json", failingScenario)
	code, stdout, _ := run(t, "-dir", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for a failing corpus", code)
	}
	if !strings.Contains(stdout, "tiny-fail") || !strings.Contains(stdout, "FAIL") {
		t.Fatalf("report does not name the failing scenario:\n%s", stdout)
	}

	good := t.TempDir()
	writeScenario(t, good, "a-pass.json", passingScenario)
	code, stdout, stderr := run(t, "-dir", good)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s\n%s", code, stderr, stdout)
	}
	if !strings.Contains(stdout, "tiny-pass") {
		t.Fatalf("report missing the scenario:\n%s", stdout)
	}
}

// TestCLIGenOutRoundTrip: -gen-out materializes the generated matrix as
// scenario files that parse, validate, and then run green under -dir —
// the reproduce-a-generated-failure workflow the flag exists for.
func TestCLIGenOutRoundTrip(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := run(t, "-gen-out", dir, "-seed", "5", "-count", "3")
	if code != 0 {
		t.Fatalf("gen-out exit %d, stderr: %s", code, stderr)
	}
	paths := strings.Fields(strings.TrimSpace(stdout))
	if len(paths) != 3 {
		t.Fatalf("printed %d paths, want 3:\n%s", len(paths), stdout)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s does not re-parse: %v", p, err)
		}
		if errs := scenario.Validate(f); len(errs) != 0 {
			t.Fatalf("%s does not validate: %v", p, errs)
		}
	}
	code, stdout, stderr = run(t, "-dir", dir)
	if code != 0 {
		t.Fatalf("generated corpus failed under -dir: exit %d, stderr: %s\n%s", code, stderr, stdout)
	}
}

// TestCLIJSONDeterministic: two same-seed -json invocations are
// byte-identical (the report carries no wall-clock fields).
func TestCLIJSONDeterministic(t *testing.T) {
	args := []string{"-seed", "9", "-count", "2", "-json"}
	code, out1, stderr := run(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out1, "emusuite/v1") {
		t.Fatalf("JSON report lacks the schema tag:\n%s", out1)
	}
	code, out2, _ := run(t, args...)
	if code != 0 {
		t.Fatalf("second run exit %d", code)
	}
	if out1 != out2 {
		t.Fatal("same-seed -json reports differ")
	}
}

// TestCLIJUnit: -junit writes well-formed JUnit XML naming the suite.
func TestCLIJUnit(t *testing.T) {
	dir := t.TempDir()
	writeScenario(t, dir, "a-pass.json", passingScenario)
	out := filepath.Join(t.TempDir(), "junit.xml")
	code, _, stderr := run(t, "-dir", dir, "-junit", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<testsuite", "emusuite", "tiny-pass"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("JUnit output missing %q:\n%s", want, data)
		}
	}
}

// TestMatrixJSONGolden pins `emusuite -seed 1 -count 64 -json` and
// checks that -parallel 1 and -parallel 4 both print exactly it: the
// worker pool may only move the host time, never the report.
func TestMatrixJSONGolden(t *testing.T) {
	var serial string
	for _, parallel := range []string{"1", "4"} {
		code, stdout, stderr := run(t, "-seed", "1", "-count", "64", "-parallel", parallel, "-json")
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d, stderr: %s", parallel, code, stderr)
		}
		if serial == "" {
			serial = stdout
		} else if stdout != serial {
			t.Fatalf("-parallel %s report differs from the serial one", parallel)
		}
		golden.Check(t, filepath.Join("testdata", "matrix_seed1_count64.golden"), []byte(stdout))
	}
}

// TestExamplesJSONGolden pins `emusuite -dir examples/scenarios -json`
// as run from the repository root, so the report's source paths read as
// they do there.
func TestExamplesJSONGolden(t *testing.T) {
	path, err := filepath.Abs(filepath.Join("testdata", "examples.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	code, stdout, stderr := run(t, "-dir", "examples/scenarios", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	golden.Check(t, path, []byte(stdout))
}
