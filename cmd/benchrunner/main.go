// Command benchrunner regenerates the figures and tables of the paper's
// evaluation (§7) and prints paper-vs-measured rows.
//
// Usage:
//
//	benchrunner -all
//	benchrunner -fig 6
//	benchrunner -table swap
//	benchrunner -fig 4 -seed 7 -quick
//	benchrunner -all -quick -json > bench.json
//
// Each experiment is deterministic for a given seed; -quick shrinks the
// workloads (fewer iterations, smaller files) for a fast sanity pass.
// -json emits one object keyed by figure/table name with the measured
// scalar results. Every value is simulated, so two same-seed runs
// print the same bytes; the -quick -json output of each key is pinned
// by a golden under testdata/. Host time is measured by perfbench and
// the Go benchmarks, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"emucheck/internal/evalrun"
)

// cli is the whole command behind a testable seam: args excludes the
// program name, output goes to the given writers, and the return value
// is the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig    = fs.Int("fig", 0, "figure number to regenerate (4-9)")
		table  = fs.String("table", "", "table to regenerate: swap | freeblock | sync | dom0 | ablation | timeshare | branch | recovery | remediate | storage | scale | suite | federation")
		all    = fs.Bool("all", false, "regenerate everything")
		seed   = fs.Int64("seed", 1, "simulation seed")
		quick  = fs.Bool("quick", false, "reduced workload sizes")
		fanout = fs.Int("fanout", 4, "branch table fan-out")
		asJSON = fs.Bool("json", false, "emit results as JSON instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	iters4, iters5 := 6000, 600
	fileMB7 := int64(3 << 10) // the paper's 3 GB torrent
	fileMB8 := int64(512)
	copyMB9 := int64(512)
	ticksTS := int64(0) // timeshare default: 900 ticks per tenant
	if *quick {
		iters4, iters5 = 1500, 150
		fileMB7 = 512
		fileMB8 = 256
		copyMB9 = 256
		// ticksTS stays at the default: a shorter target parks each
		// tenant at most once, and a first swap-out is always a full
		// save, which would erase the incremental-vs-full comparison
		// the timeshare table exists to show.
	}

	type renderer interface{ Render() string }
	results := make(map[string]any)
	emit := func(key, title string, f func() renderer) {
		r := f()
		results[key] = r
		if *asJSON {
			return
		}
		fmt.Fprintf(stdout, "== %s ==\n", title)
		fmt.Fprint(stdout, r.Render())
		fmt.Fprintln(stdout)
	}
	run := func(n int, f func() renderer) {
		if *all || *fig == n {
			emit(fmt.Sprintf("fig%d", n), fmt.Sprintf("Figure %d", n), f)
		}
	}
	runT := func(name, title string, f func() renderer) {
		if *all || *table == name {
			emit(name, title, f)
		}
	}

	run(4, func() renderer { return evalrun.Fig4(*seed, iters4) })
	run(5, func() renderer { return evalrun.Fig5(*seed, iters5) })
	run(6, func() renderer { return evalrun.Fig6(*seed) })
	run(7, func() renderer { return evalrun.Fig7(*seed, fileMB7) })
	run(8, func() renderer { return evalrun.Fig8(*seed, fileMB8) })
	run(9, func() renderer { return evalrun.Fig9(*seed, copyMB9) })
	runT("swap", "Stateful swapping (§7.2)", func() renderer { return evalrun.SwapTable(*seed) })
	runT("freeblock", "Free-block elimination (§5.1)", func() renderer { return evalrun.FreeBlockTable(*seed) })
	runT("sync", "Checkpoint synchronization (§4.3)", func() renderer { return evalrun.SyncTable(*seed) })
	runT("dom0", "Dom0 interference (§7.1)", func() renderer { return evalrun.Dom0Jobs(*seed) })
	runT("ablation", "Ablation: delay-node capture (§4.4)", func() renderer { return evalrun.AblationDelayNode(*seed) })
	runT("timeshare", "Multi-tenancy: incremental vs full-copy vs stateless swapping", func() renderer { return evalrun.Timeshare(*seed, ticksTS) })
	runT("branch", "Branch fan-out: shared-lineage vs naive per-branch full copies", func() renderer { return evalrun.BranchTable(*seed, *fanout) })
	runT("recovery", "Crash recovery: checkpoint epochs vs restart-from-scratch", func() renderer { return evalrun.Recovery(*seed, *quick) })
	runT("remediate", "Unattended remediation: health-loop policies vs scripted recovery vs restart", func() renderer { return evalrun.Remediate(*seed, *quick) })
	runT("storage", "Tiered chain storage: cached vs uncached restores at fan-out", func() renderer { return evalrun.StorageTable(*seed, *fanout) })
	scaleSizes := []int{16, 128, 1000, 10000}
	if *quick {
		scaleSizes = []int{16, 128}
	}
	runT("scale", "Oversubscription at scale: tenants vs completion and queueing", func() renderer { return evalrun.Scale(*seed, scaleSizes) })
	suiteCount := 24
	if *quick {
		suiteCount = 12
	}
	runT("suite", "Scenario corpus under shared suite invariants", func() renderer { return evalrun.SuiteTable(*seed, suiteCount) })
	fedSizes, fedFacs := []int{1000, 10000}, []int{1, 2, 4, 8}
	if *quick {
		fedSizes, fedFacs = []int{200}, []int{1, 2}
	}
	runT("federation", "Federated facility sharding: conservative-window parallel fleets", func() renderer { return evalrun.Federation(*seed, fedSizes, fedFacs) })

	if len(results) == 0 {
		fs.Usage()
		return 2
	}
	if *asJSON {
		out, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchrunner:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
	}
	return 0
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}
