// Command emucheck is the multi-experiment testbed driver: it loads
// declarative scenario files (fleet of experiments + timed events +
// assertions), validates them, and replays them deterministically on a
// simulated Emulab cluster with a preemptive swap scheduler.
//
// Usage:
//
//	emucheck validate <scenario.json>
//	emucheck run [-json] [-junit file] [-parallel N] <scenario.json>
//
// Example scenarios live in examples/scenarios/ and are documented in
// docs/scenarios.md. run exits nonzero when any scenario assertion
// fails, so scripted scenarios double as integration checks; the
// `run -json` output of each example is pinned by a golden under
// testdata/.
//
// Scenario files with a "search" stanza run the state-search engine:
// one experiment is checkpointed, forked into a gang-admitted branch
// fan-out sharing its checkpoint prefix by reference, and the report
// includes each branch's explored outcome (see
// examples/scenarios/search.json and docs/branching.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"emucheck/internal/scenario"
	"emucheck/internal/suite"
)

const usage = `usage: emucheck <command> [flags] [args]

commands:
  validate <scenario.json>   check a scenario file without running it
  run [-json] [-junit file] [-parallel N] <scenario.json>
                             replay a scenario and evaluate its assertions;
                             -junit additionally runs it under the suite's
                             shared invariants and writes JUnit XML, with
                             the run + replay pair executed on up to
                             -parallel workers (report unchanged)
`

// fail reports err on stderr and returns the exit code for it.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "emucheck:", err)
	return 1
}

func loadFile(path string) (*scenario.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return scenario.Parse(data)
}

// junitReport runs one scenario under the suite's shared invariants
// and renders the single-case JUnit XML the -junit flag writes. It
// reuses the suite's writer so emucheck and emusuite emit the same
// format for the same run. workers bounds how many of the scenario's
// two executions (run + replay-digest re-run) proceed concurrently.
func junitReport(f *scenario.File, source string, workers int) ([]byte, suite.RunReport, error) {
	rr := suite.RunOneParallel(f, source, workers)
	rep := &suite.Report{Schema: suite.Schema, Runs: []suite.RunReport{rr}}
	if rr.Pass {
		rep.Passed = 1
	} else {
		rep.Failed = 1
	}
	data, err := rep.JUnit("emucheck")
	return data, rr, err
}

// cli is the whole command behind a testable seam: args excludes the
// program name, output goes to the given writers, and the return value
// is the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	switch args[0] {
	case "validate":
		if len(args) != 2 {
			fmt.Fprint(stderr, usage)
			return 2
		}
		f, err := loadFile(args[1])
		if err != nil {
			return fail(stderr, err)
		}
		if errs := scenario.Validate(f); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(stderr, "invalid:", e)
			}
			return 1
		}
		fmt.Fprintf(stdout, "%s: ok (%d experiments, %d events, %d assertions)\n",
			f.Name, len(f.Experiments), len(f.Events), len(f.Assertions))
		return 0
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	default:
		fmt.Fprint(stderr, usage)
		return 2
	}
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	junitPath := fs.String("junit", "", "run under the suite invariants and write JUnit XML to this file")
	parallel := fs.Int("parallel", 0, "with -junit: max concurrent executions of the run + replay pair (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	f, err := loadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	var res *scenario.Result
	if *junitPath != "" {
		// The suite runner replays the scenario for its determinism
		// invariant, so the JUnit verdict covers more than the plain run.
		data, rr, err := junitReport(f, fs.Arg(0), *parallel)
		if err == nil {
			err = os.WriteFile(*junitPath, data, 0o644)
		}
		if err != nil {
			return fail(stderr, err)
		}
		if rr.Error != "" {
			return fail(stderr, errors.New(rr.Error))
		}
		res = rr.Result
		res.Pass = rr.Pass // fold invariant failures into the exit code
	} else if res, err = scenario.Run(f); err != nil {
		return fail(stderr, err)
	}
	if *asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		fmt.Fprint(stdout, res.Render())
	}
	if !res.Pass {
		return 1
	}
	return 0
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}
