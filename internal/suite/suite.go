// Package suite executes a corpus of scenarios — a directory of files
// or a generated matrix — and enforces shared cross-cutting invariants
// on every run, regardless of what the scenario's own assertions
// check. The invariants are the system-wide conservation laws every
// correct run must satisfy:
//
//   - replay-digest: running the same file twice produces
//     byte-identical results (the determinism contract);
//   - hardware-leak: after the run, the testbed's in-use count equals
//     the sum of live experiments' allocations, and the free count
//     stays within the pool;
//   - chain-refcounts: the ChainStore's entries exactly match the
//     references live lineages hold — no orphaned entries, no
//     refcount drift, no negative refs;
//   - bus-conservation: every control-LAN delivery attempt is
//     delivered, dropped by injection, or still in flight, and
//     per-topic ledgers sum to the bus totals;
//   - ledgers: scheduler, storage, and per-tenant accounting never go
//     negative, and utilization stays in [0, 1];
//   - no-orphaned-cordon: the scheduler's cordon line always equals the
//     cordons the remediation controller's open episodes hold, and the
//     controller's issue/release ledger accounts for the difference —
//     capacity withdrawn by the health loop is never leaked.
//
// The runner reports per-scenario verdicts as a JSON corpus report
// (schema emusuite/v1, free of wall-clock fields so same-seed reports
// are byte-identical) and as JUnit XML for CI.
package suite

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"emucheck"
	"emucheck/internal/federation"
	"emucheck/internal/scenario"
	"emucheck/internal/scengen"
	"emucheck/internal/storage"
)

// Schema identifies the corpus report format.
const Schema = "emusuite/v1"

// InvariantCheck is one shared invariant's verdict for one run.
type InvariantCheck struct {
	Name   string `json:"name"`
	Ok     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// RunReport is one scenario's suite verdict: the scenario's own result
// plus the shared-invariant checks.
type RunReport struct {
	Name   string `json:"name"`
	Source string `json:"source"` // file path, or "generated"
	Seed   int64  `json:"seed"`
	// Pass requires the scenario's own assertions AND every shared
	// invariant to hold.
	Pass bool `json:"pass"`
	// SimSeconds is the simulated time the run covered — the
	// deterministic "duration" JUnit reports instead of wall time.
	SimSeconds float64 `json:"sim_seconds"`
	// Digest fingerprints the run's full result JSON (FNV-64a); equal
	// digests mean byte-identical runs.
	Digest     string           `json:"digest"`
	Invariants []InvariantCheck `json:"invariants"`
	Error      string           `json:"error,omitempty"`
	Result     *scenario.Result `json:"result,omitempty"`
}

// Report is the corpus-level verdict (schema emusuite/v1). It contains
// no wall-clock fields, so two same-seed suite runs marshal to
// byte-identical JSON — which is itself the corpus determinism check.
type Report struct {
	Schema string `json:"schema"`
	// GenSeed is the generator seed for matrix runs (0 for directories).
	GenSeed int64       `json:"gen_seed,omitempty"`
	Runs    []RunReport `json:"runs"`
	Passed  int         `json:"passed"`
	Failed  int         `json:"failed"`
	// Coverage counts how many scenarios exercised each behavior axis —
	// the proof a generated corpus actually samples the space.
	Coverage map[string]int `json:"coverage"`
}

// digest fingerprints a scenario result as canonical JSON under
// FNV-64a.
func digest(res *scenario.Result) string {
	data, err := json.Marshal(res)
	if err != nil {
		return "marshal-error"
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// execution is one deterministic run of a scenario: the parallel
// runner's unit of work. Every scenario needs two (the second exists
// purely to check the replay-digest invariant), and the two are as
// independent as two different scenarios — each gets its own
// simulator, cluster, and RNG stream — so the pool schedules them as
// separate work items.
type execution struct {
	res *scenario.Result
	c   *emucheck.Cluster
	err error
}

// sem is the worker pool: a counting semaphore bounding how many
// scenario executions run at once. A nil sem runs the caller inline
// (the serial path shares all code with the parallel one).
type sem chan struct{}

func newSem(workers int) sem {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return make(sem, workers)
}

// exec runs one scenario execution under the pool bound.
func (s sem) exec(f *scenario.File) execution {
	if s != nil {
		s <- struct{}{}
		defer func() { <-s }()
	}
	var e execution
	e.res, e.c, e.err = scenario.RunWithCluster(f)
	return e
}

// assembleRun combines a scenario's two executions into its suite
// verdict. Everything here is a pure function of the two executions
// (which are themselves pure functions of the file), so the RunReport
// is identical however the executions were scheduled — this is the
// step that makes the parallel report byte-identical to the serial
// one.
func assembleRun(f *scenario.File, source string, first, replay execution) RunReport {
	rr := RunReport{Name: f.Name, Source: source, Seed: f.Seed}
	if d, err := time.ParseDuration(f.RunFor); err == nil {
		rr.SimSeconds = d.Seconds()
	}
	if first.err != nil {
		rr.Error = first.err.Error()
		return rr
	}
	rr.Result = first.res
	rr.Digest = digest(first.res)

	rd := InvariantCheck{Name: "replay-digest", Ok: false}
	switch {
	case replay.err != nil:
		rd.Detail = "replay errored: " + replay.err.Error()
	case digest(replay.res) != rr.Digest:
		rd.Detail = fmt.Sprintf("same-seed replay diverged: %s vs %s", rr.Digest, digest(replay.res))
	default:
		rd.Ok = true
		rd.Detail = rr.Digest
	}
	rr.Invariants = []InvariantCheck{rd}
	if first.c != nil {
		rr.Invariants = append(rr.Invariants,
			checkHardware(first.c),
			checkChains(first.c),
			checkBus(first.c),
			checkLedgers(first.c),
			checkCordons(first.c),
		)
	} else if first.res.Federation != nil {
		// Federation scenarios run their own worlds and hand back no
		// cluster; the conservation laws audit the aggregate result.
		rr.Invariants = append(rr.Invariants, checkFederation(first.res.Federation))
	}
	rr.Pass = first.res.Pass
	for _, inv := range rr.Invariants {
		if !inv.Ok {
			rr.Pass = false
		}
	}
	return rr
}

// RunOne executes one scenario under the shared invariants. The
// scenario runs twice — the second run exists purely to check the
// replay-digest invariant — and the invariants are audited against the
// first run's cluster.
func RunOne(f *scenario.File, source string) RunReport {
	return assembleRun(f, source, sem(nil).exec(f), sem(nil).exec(f))
}

// RunOneParallel is RunOne with the scenario's two executions run
// concurrently on up to `workers` goroutines (0 means GOMAXPROCS).
// The report is byte-identical to RunOne's.
func RunOneParallel(f *scenario.File, source string, workers int) RunReport {
	pool := newSem(workers)
	var first, replay execution
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); first = pool.exec(f) }()
	go func() { defer wg.Done(); replay = pool.exec(f) }()
	wg.Wait()
	return assembleRun(f, source, first, replay)
}

// checkHardware audits the pool ledger: free nodes within bounds, and
// the in-use count exactly the sum of live experiments' allocations —
// anything else means Finish/Crash leaked (or double-freed) hardware.
func checkHardware(c *emucheck.Cluster) InvariantCheck {
	inv := InvariantCheck{Name: "hardware-leak"}
	tb := c.TB
	if tb.FreeNodes < 0 || tb.FreeNodes > tb.PoolSize {
		inv.Detail = fmt.Sprintf("free nodes %d outside pool [0, %d]", tb.FreeNodes, tb.PoolSize)
		return inv
	}
	held := 0
	for _, t := range c.Tenants() {
		if t.Exp != nil && !t.Exp.Released() {
			held += t.Exp.Allocated()
		}
	}
	if held != tb.InUse() {
		inv.Detail = fmt.Sprintf("testbed has %d nodes in use, live experiments hold %d", tb.InUse(), held)
		return inv
	}
	inv.Ok = true
	inv.Detail = fmt.Sprintf("%d/%d in use by live experiments", tb.InUse(), tb.PoolSize)
	return inv
}

// checkChains audits the checkpoint store against the references live
// lineages hold: every stored epoch reachable, every reference backed,
// counts in exact agreement.
func checkChains(c *emucheck.Cluster) InvariantCheck {
	inv := InvariantCheck{Name: "chain-refcounts"}
	expected := make(map[storage.Addr]int)
	for _, t := range c.Tenants() {
		for _, lin := range t.LiveLineages() {
			if lin.Store() != c.Chains {
				continue // naive-baseline private stores audit trivially
			}
			for _, seg := range lin.Segments() {
				expected[seg.Addr]++
			}
		}
	}
	if errs := c.Chains.Audit(expected); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		sort.Strings(msgs)
		inv.Detail = strings.Join(msgs, "; ")
		return inv
	}
	inv.Ok = true
	inv.Detail = fmt.Sprintf("%d entries, %d live references", c.Chains.Entries(), refTotal(expected))
	return inv
}

func refTotal(m map[storage.Addr]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// checkBus audits control-LAN delivery conservation: attempts resolve
// to delivered + dropped + in flight, and the per-topic ledgers sum to
// the bus totals.
func checkBus(c *emucheck.Cluster) InvariantCheck {
	inv := InvariantCheck{Name: "bus-conservation"}
	b := c.TB.Bus
	if b.Delivered+b.Dropped > b.Attempts {
		inv.Detail = fmt.Sprintf("delivered %d + dropped %d exceed %d attempts", b.Delivered, b.Dropped, b.Attempts)
		return inv
	}
	var pub, del, drop uint64
	for _, ts := range b.Topics() {
		pub += ts.Published
		del += ts.Delivered
		drop += ts.Dropped
	}
	if pub != b.Published || del != b.Delivered || drop != b.Dropped {
		inv.Detail = fmt.Sprintf("per-topic sums (%d/%d/%d) disagree with bus totals (%d/%d/%d)",
			pub, del, drop, b.Published, b.Delivered, b.Dropped)
		return inv
	}
	inv.Ok = true
	inv.Detail = fmt.Sprintf("%d published, %d attempts = %d delivered + %d dropped + %d in flight",
		b.Published, b.Attempts, b.Delivered, b.Dropped, b.InFlight())
	return inv
}

// checkLedgers audits the non-negativity of every accounting ledger a
// run touches, plus utilization staying a fraction.
func checkLedgers(c *emucheck.Cluster) InvariantCheck {
	inv := InvariantCheck{Name: "ledgers"}
	var bad []string
	if c.Sched.Admissions < 0 || c.Sched.Preemptions < 0 || c.Sched.GangAdmissions < 0 {
		bad = append(bad, fmt.Sprintf("scheduler counters negative (%d/%d/%d)",
			c.Sched.Admissions, c.Sched.Preemptions, c.Sched.GangAdmissions))
	}
	if c.Sched.PreemptedBytes < 0 {
		bad = append(bad, fmt.Sprintf("preempted bytes %d", c.Sched.PreemptedBytes))
	}
	if u := c.Utilization(); u < 0 || u > 1.000001 {
		bad = append(bad, fmt.Sprintf("utilization %.4f outside [0, 1]", u))
	}
	if c.Chains.StoredBytes() < 0 || c.Chains.GCBytes < 0 || c.Chains.DedupBytes < 0 {
		bad = append(bad, "chain store byte ledger negative")
	}
	for _, t := range c.Tenants() {
		if t.QueueWait() < 0 || t.LostWork() < 0 || t.Recoveries() < 0 || t.EpochsAborted() < 0 {
			bad = append(bad, t.Scenario.Spec.Name+" tenant ledger negative")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		inv.Detail = strings.Join(bad, "; ")
		return inv
	}
	inv.Ok = true
	inv.Detail = fmt.Sprintf("%d tenants, utilization %.2f", len(c.Tenants()), c.Utilization())
	return inv
}

// checkCordons audits the health loop's cordon conservation law: the
// capacity the scheduler holds out of admission must exactly equal the
// cordons the remediation controller's open episodes hold, and the
// controller's own issue/release ledger must account for that balance.
// A mismatch means a remediation episode leaked pool capacity (or
// double-released it). Trivially satisfied when the run never armed
// the health loop.
func checkCordons(c *emucheck.Cluster) InvariantCheck {
	inv := InvariantCheck{Name: "no-orphaned-cordon"}
	if !c.HealthEnabled() {
		inv.Ok = true
		inv.Detail = "health loop not armed"
		return inv
	}
	rc := c.Remediator()
	schedHeld, ctrlHeld := c.Sched.CordonedNodes(), rc.CordonedNodes()
	if schedHeld != ctrlHeld {
		inv.Detail = fmt.Sprintf("scheduler holds %d cordoned nodes, controller episodes hold %d", schedHeld, ctrlHeld)
		return inv
	}
	if rc.CordonsReleased > rc.CordonsIssued {
		inv.Detail = fmt.Sprintf("cordon ledger: %d released exceeds %d issued", rc.CordonsReleased, rc.CordonsIssued)
		return inv
	}
	inv.Ok = true
	inv.Detail = fmt.Sprintf("%d held (%d issued, %d released)", schedHeld, rc.CordonsIssued, rc.CordonsReleased)
	return inv
}

// checkFederation audits a federated run's aggregate ledgers: no
// counter negative, completions bounded by the fleet, windows actually
// advanced, and a digest present (the per-sharding determinism pin).
func checkFederation(fr *federation.Result) InvariantCheck {
	inv := InvariantCheck{Name: "federation-ledgers"}
	var bad []string
	if fr.Completed < 0 || fr.Completed > fr.Tenants {
		bad = append(bad, fmt.Sprintf("completed %d outside [0, %d]", fr.Completed, fr.Tenants))
	}
	if fr.Migrations < 0 || fr.WANMsgs < 0 || fr.Ticks < 0 {
		bad = append(bad, fmt.Sprintf("counters negative (%d/%d/%d)", fr.Migrations, fr.WANMsgs, fr.Ticks))
	}
	if fr.WANMB < 0 || fr.WarmedMB < 0 || fr.LocalMB < 0 || fr.RemoteMB < 0 || fr.PoolMB < 0 {
		bad = append(bad, "byte ledger negative")
	}
	if fr.Windows <= 0 {
		bad = append(bad, fmt.Sprintf("no windows ran (%d)", fr.Windows))
	}
	if fr.Digest == "" {
		bad = append(bad, "no digest")
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		inv.Detail = strings.Join(bad, "; ")
		return inv
	}
	inv.Ok = true
	inv.Detail = fmt.Sprintf("%d/%d completed over %d facilities, %d windows, digest %s",
		fr.Completed, fr.Tenants, fr.Facilities, fr.Windows, fr.Digest)
	return inv
}

// coverageKeys names the behavior axes one scenario exercises.
func coverageKeys(f *scenario.File) []string {
	if fd := f.Federation; fd != nil {
		// Federation scenarios have no policy/swap/workload axes — the
		// fleet, its sharding, and the migration plane are the axes.
		keys := []string{"federation"}
		if fd.Migration {
			keys = append(keys, "federation:migration")
		}
		if fd.WarmUp {
			keys = append(keys, "federation:warmup")
		}
		return keys
	}
	keys := []string{}
	pol := f.Policy
	if pol == "" {
		pol = "fifo"
	}
	keys = append(keys, "policy:"+pol)
	if f.Swap == "incremental" {
		keys = append(keys, "swap:incremental")
	} else {
		keys = append(keys, "swap:full")
	}
	if st := f.Storage; st != nil {
		backend := st.Backend
		if backend == "" {
			backend = "mem"
		}
		keys = append(keys, "storage:"+backend)
		if st.CacheMB > 0 {
			keys = append(keys, "storage:cache")
		}
	}
	if len(f.Faults) > 0 {
		keys = append(keys, "faults")
	}
	if h := f.Health; h != nil {
		pol := h.Policy
		if pol == "" {
			pol = "balanced"
		}
		keys = append(keys, "health", "health:"+pol)
	}
	if f.Search != nil {
		keys = append(keys, "branching", "gang-admission")
	}
	seen := map[string]bool{}
	for i := range f.Experiments {
		e := &f.Experiments[i]
		if !seen["workload:"+e.Workload] {
			keys = append(keys, "workload:"+e.Workload)
			seen["workload:"+e.Workload] = true
		}
		if e.Epochs != "" && !seen["epochs"] {
			keys = append(keys, "epochs")
			seen["epochs"] = true
		}
	}
	return keys
}

// RunFiles executes the given scenarios serially (sources names each
// one's origin, parallel to files) and assembles the corpus report.
func RunFiles(files []*scenario.File, sources []string) *Report {
	return RunFilesParallel(files, sources, 1)
}

// RunFilesParallel executes the corpus on a bounded worker pool of up
// to `workers` concurrent scenario executions (0 means GOMAXPROCS).
// Each scenario is an independent single-goroutine simulation, and so
// is its replay-digest re-execution, so both fan out as separate work
// items — a corpus of n scenarios is 2n pool tasks. Results are
// assembled strictly in input order, and nothing in a RunReport
// depends on scheduling, so the report — and its emusuite/v1 JSON and
// JUnit renderings — is byte-identical to a serial run's. Speedup is
// observable only on the host clock (BenchmarkSuiteParallel measures
// it); the report deliberately has nowhere to record it.
func RunFilesParallel(files []*scenario.File, sources []string, workers int) *Report {
	pool := newSem(workers)
	runs := make([]RunReport, len(files))
	var wg sync.WaitGroup
	for i, f := range files {
		src := "generated"
		if i < len(sources) {
			src = sources[i]
		}
		wg.Add(1)
		go func(i int, f *scenario.File, src string) {
			defer wg.Done()
			var first, replay execution
			var pair sync.WaitGroup
			pair.Add(2)
			go func() { defer pair.Done(); first = pool.exec(f) }()
			go func() { defer pair.Done(); replay = pool.exec(f) }()
			pair.Wait()
			// Assemble as soon as this scenario's own pair finishes; the
			// indexed slot keeps input order whatever the completion order.
			runs[i] = assembleRun(f, src, first, replay)
		}(i, f, src)
	}
	wg.Wait()
	rep := &Report{Schema: Schema, Coverage: make(map[string]int)}
	for i, f := range files {
		rr := runs[i]
		rep.Runs = append(rep.Runs, rr)
		if rr.Pass {
			rep.Passed++
		} else {
			rep.Failed++
		}
		for _, k := range coverageKeys(f) {
			rep.Coverage[k]++
		}
	}
	return rep
}

// RunMatrix generates and executes an n-scenario corpus keyed by seed,
// serially.
func RunMatrix(seed int64, n int) *Report {
	return RunMatrixParallel(seed, n, 1)
}

// RunMatrixParallel is RunMatrix on a bounded worker pool (0 workers
// means GOMAXPROCS); the report is byte-identical to RunMatrix's.
func RunMatrixParallel(seed int64, n, workers int) *Report {
	files := scengen.Matrix(seed, n)
	rep := RunFilesParallel(files, nil, workers)
	rep.GenSeed = seed
	return rep
}

// Render prints the corpus report as a human-readable summary.
func (r *Report) Render() string {
	var b strings.Builder
	for _, rr := range r.Runs {
		mark := "PASS"
		if !rr.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "%s  %-24s %-28s digest=%s\n", mark, rr.Name, "("+rr.Source+")", rr.Digest)
		if rr.Error != "" {
			fmt.Fprintf(&b, "      error: %s\n", rr.Error)
		}
		for _, inv := range rr.Invariants {
			if !inv.Ok {
				fmt.Fprintf(&b, "      invariant %s: %s\n", inv.Name, inv.Detail)
			}
		}
		if rr.Result != nil {
			for _, ch := range rr.Result.Checks {
				if !ch.Ok {
					fmt.Fprintf(&b, "      check: %s (%s)\n", ch.Desc, ch.Detail)
				}
			}
			for _, ev := range rr.Result.EventErrors {
				fmt.Fprintf(&b, "      event error: %s\n", ev)
			}
		}
	}
	fmt.Fprintf(&b, "suite: %d passed, %d failed\n", r.Passed, r.Failed)
	keys := make([]string, 0, len(r.Coverage))
	for k := range r.Coverage {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, r.Coverage[k])
	}
	fmt.Fprintf(&b, "coverage: %s\n", strings.Join(parts, " "))
	return b.String()
}
