package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"emucheck/internal/golden"
)

func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := cli(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCLISubcommands smoke-tests every demo: exit zero and the
// narration's load-bearing lines present.
func TestCLISubcommands(t *testing.T) {
	cases := []struct {
		cmd  string
		want []string
	}{
		{"checkpoint", []string{"sleep loop", "iterations:", "checkpoint 1:", "checkpoint 3:", "downtime"}},
		{"swap", []string{"virtual time before swap-out", "swapped out in", "swapped in (lazy)", "never happened"}},
		{"timetravel", []string{"checkpoint 1 at virtual", "rolled back to node 1", "branch recorded"}},
	}
	for _, tc := range cases {
		t.Run(tc.cmd, func(t *testing.T) {
			code, stdout, stderr := run(t, tc.cmd)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout, w) {
					t.Fatalf("narration missing %q:\n%s", w, stdout)
				}
			}
		})
	}
}

// TestCLIDemoRunsAll: the default command chains all three demos.
func TestCLIDemoRunsAll(t *testing.T) {
	for _, args := range [][]string{{"demo"}, {}} {
		code, stdout, stderr := run(t, args...)
		if code != 0 {
			t.Fatalf("args %v: exit %d, stderr: %s", args, code, stderr)
		}
		for _, w := range []string{"sleep loop", "swapped out in", "branch recorded"} {
			if !strings.Contains(stdout, w) {
				t.Fatalf("args %v: chained narration missing %q:\n%s", args, w, stdout)
			}
		}
	}
}

// TestCLIDeterministic: the whole demo narration is a pure function of
// the seed — virtual timestamps, checkpoint byte counts, and all.
func TestCLIDeterministic(t *testing.T) {
	_, out1, _ := run(t, "-seed", "7", "demo")
	_, out2, _ := run(t, "-seed", "7", "demo")
	if out1 != out2 {
		t.Fatal("same-seed demo narrations differ")
	}
	_, out3, _ := run(t, "-seed", "8", "demo")
	if out1 == out3 {
		t.Fatal("different seeds produced identical narration — seed is not wired through")
	}
}

func TestCLIUnknownCommand(t *testing.T) {
	code, _, stderr := run(t, "frobnicate")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown command") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestCLIBadFlag(t *testing.T) {
	if code, _, _ := run(t, "-no-such-flag"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestDemoGolden pins the whole `emucp demo` narration.
func TestDemoGolden(t *testing.T) {
	code, stdout, stderr := run(t, "demo")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	golden.Check(t, filepath.Join("testdata", "demo.golden"), []byte(stdout))
}
