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
	"reflect"
	"strings"

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

	results := make(map[string]any)
	for _, o := range outputs(*seed, *quick, *fanout) {
		want := *table
		if strings.HasPrefix(o.key, "fig") {
			want = fmt.Sprintf("fig%d", *fig)
		}
		if !*all && o.key != want {
			continue
		}
		r := o.run()
		results[o.key] = r
		if *asJSON {
			continue
		}
		fmt.Fprintf(stdout, "== %s ==\n", o.title)
		fmt.Fprint(stdout, r.Render())
		fmt.Fprintln(stdout)
	}

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

type renderer interface{ Render() string }

// output is one figure or table: its -json key, its text title, the
// result type its run returns (the schema golden pins its fields).
type output struct {
	key, title string
	typ        reflect.Type
	run        func() renderer
}

// entry builds an output whose type is the one run returns.
func entry[T renderer](key, title string, run func() T) output {
	return output{key, title, reflect.TypeFor[T](), func() renderer { return run() }}
}

// outputs is the one registry of benchrunner's figures and tables, in
// emission order; the value and schema goldens cover every key in it.
func outputs(seed int64, quick bool, fanout int) []output {
	iters4, iters5 := 6000, 600
	fileMB7 := int64(3 << 10) // the paper's 3 GB torrent
	fileMB8 := int64(512)
	copyMB9 := int64(512)
	ticksTS := int64(0) // timeshare default: 900 ticks per tenant
	scaleSizes := []int{16, 128, 1000, 10000}
	suiteCount := 24
	fedSizes, fedFacs := []int{1000, 10000}, []int{1, 2, 4, 8}
	if quick {
		iters4, iters5 = 1500, 150
		fileMB7 = 512
		fileMB8 = 256
		copyMB9 = 256
		// ticksTS stays at the default: a shorter target parks each
		// tenant at most once, and a first swap-out is always a full
		// save, which would erase the incremental-vs-full comparison
		// the timeshare table exists to show.
		scaleSizes = []int{16, 128}
		suiteCount = 12
		fedSizes, fedFacs = []int{200}, []int{1, 2}
	}
	return []output{
		entry("fig4", "Figure 4", func() *evalrun.Fig4Result { return evalrun.Fig4(seed, iters4) }),
		entry("fig5", "Figure 5", func() *evalrun.Fig5Result { return evalrun.Fig5(seed, iters5) }),
		entry("fig6", "Figure 6", func() *evalrun.Fig6Result { return evalrun.Fig6(seed) }),
		entry("fig7", "Figure 7", func() *evalrun.Fig7Result { return evalrun.Fig7(seed, fileMB7) }),
		entry("fig8", "Figure 8", func() *evalrun.Fig8Result { return evalrun.Fig8(seed, fileMB8) }),
		entry("fig9", "Figure 9", func() *evalrun.Fig9Result { return evalrun.Fig9(seed, copyMB9) }),
		entry("swap", "Stateful swapping (§7.2)", func() *evalrun.SwapTableResult { return evalrun.SwapTable(seed) }),
		entry("freeblock", "Free-block elimination (§5.1)", func() *evalrun.FreeBlockResult { return evalrun.FreeBlockTable(seed) }),
		entry("sync", "Checkpoint synchronization (§4.3)", func() *evalrun.SyncResult { return evalrun.SyncTable(seed) }),
		entry("dom0", "Dom0 interference (§7.1)", func() *evalrun.Dom0JobsResult { return evalrun.Dom0Jobs(seed) }),
		entry("ablation", "Ablation: delay-node capture (§4.4)", func() *evalrun.AblationResult { return evalrun.AblationDelayNode(seed) }),
		entry("timeshare", "Multi-tenancy: incremental vs full-copy vs stateless swapping", func() *evalrun.TimeshareResult { return evalrun.Timeshare(seed, ticksTS) }),
		entry("branch", "Branch fan-out: shared-lineage vs naive per-branch full copies", func() *evalrun.BranchResult { return evalrun.BranchTable(seed, fanout) }),
		entry("recovery", "Crash recovery: checkpoint epochs vs restart-from-scratch", func() *evalrun.RecoveryResult { return evalrun.Recovery(seed, quick) }),
		entry("remediate", "Unattended remediation: health-loop policies vs scripted recovery vs restart", func() *evalrun.RemediateResult { return evalrun.Remediate(seed, quick) }),
		entry("storage", "Tiered chain storage: cached vs uncached restores at fan-out", func() *evalrun.StorageResult { return evalrun.StorageTable(seed, fanout) }),
		entry("scale", "Oversubscription at scale: tenants vs completion and queueing", func() *evalrun.ScaleResult { return evalrun.Scale(seed, scaleSizes) }),
		entry("suite", "Scenario corpus under shared suite invariants", func() *evalrun.SuiteResult { return evalrun.SuiteTable(seed, suiteCount) }),
		entry("federation", "Federated facility sharding: conservative-window parallel fleets", func() *evalrun.FederationResult { return evalrun.Federation(seed, fedSizes, fedFacs) }),
	}
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}
