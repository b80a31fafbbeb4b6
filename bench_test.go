// Benchmarks that regenerate the paper's evaluation (§7): one benchmark
// per figure and table. Each reports the figure's headline quantities as
// custom benchmark metrics, so `go test -bench=. -benchmem` prints the
// reproduction alongside runtime cost. The underlying experiments are
// deterministic; results are cached across b.N iterations so Go's
// benchmark calibration does not re-run multi-minute simulations.
package emucheck_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"emucheck"
	"emucheck/internal/emulab"
	"emucheck/internal/evalrun"
	"emucheck/internal/federation"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/suite"
)

// demoSpecForBench mirrors the 2-node demo experiment used by the
// in-package tests. (This file lives in the external test package so
// evalrun — which imports emucheck for the timeshare benchmark — can be
// benchmarked without an import cycle.)
func demoSpecForBench() emulab.Spec {
	return emulab.Spec{
		Name: "demo",
		Nodes: []emulab.NodeSpec{
			{Name: "a", Swappable: true},
			{Name: "b", Swappable: true},
		},
		Links: []emulab.LinkSpec{{
			A: "a", B: "b",
			Bandwidth: 100 * simnet.Mbps,
			Delay:     5 * sim.Millisecond,
		}},
	}
}

// Reduced-size workloads keep the full bench suite in CI territory while
// preserving every claim under test; benchrunner runs paper-scale.
const benchSeed = 1

var (
	fig4Once sync.Once
	fig4Res  *evalrun.Fig4Result
	fig5Once sync.Once
	fig5Res  *evalrun.Fig5Result
	fig6Once sync.Once
	fig6Res  *evalrun.Fig6Result
	fig7Once sync.Once
	fig7Res  *evalrun.Fig7Result
	fig8Once sync.Once
	fig8Res  *evalrun.Fig8Result
	fig9Once sync.Once
	fig9Res  *evalrun.Fig9Result
	swapOnce sync.Once
	swapRes  *evalrun.SwapTableResult
	fbOnce   sync.Once
	fbRes    *evalrun.FreeBlockResult
	syncOnce sync.Once
	syncRes  *evalrun.SyncResult
	domOnce  sync.Once
	domRes   *evalrun.Dom0JobsResult
)

// BenchmarkFig4SleepLoop regenerates Figure 4: the usleep(10 ms) loop
// under 5 s-periodic transparent checkpoints.
func BenchmarkFig4SleepLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig4Once.Do(func() { fig4Res = evalrun.Fig4(benchSeed, 3000) })
	}
	b.ReportMetric(fig4Res.MeanMs, "ms/iter")
	b.ReportMetric(fig4Res.FracWithin*100, "%within28us")
	b.ReportMetric(fig4Res.CkptMaxErr.Micros(), "us-worst-ckpt-err")
	if fig4Res.CkptMaxErr > 150*sim.Microsecond {
		b.Fatalf("transparency broken: worst error %v", fig4Res.CkptMaxErr)
	}
}

// BenchmarkFig5CPULoop regenerates Figure 5: the 236.6 ms CPU job under
// periodic checkpoints, bounded by residual dom0 interference.
func BenchmarkFig5CPULoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig5Once.Do(func() { fig5Res = evalrun.Fig5(benchSeed, 300) })
	}
	b.ReportMetric(fig5Res.MeanMs, "ms/iter")
	b.ReportMetric(fig5Res.MaxOverMs, "ms-worst-over")
	if fig5Res.MaxOverMs > 27 {
		b.Fatalf("interference above the paper's 27 ms bound: %.1f ms", fig5Res.MaxOverMs)
	}
}

// BenchmarkFig6Iperf regenerates Figure 6: a 1 Gbps iperf stream across
// four checkpoints — no retransmissions, gaps bounded by clock sync.
func BenchmarkFig6Iperf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig6Once.Do(func() { fig6Res = evalrun.Fig6(benchSeed) })
	}
	b.ReportMetric(fig6Res.MeanMBps, "MB/s")
	b.ReportMetric(fig6Res.MedianGapUs, "us-interpkt")
	if len(fig6Res.CkptGapsUs) > 0 {
		b.ReportMetric(fig6Res.CkptGapsUs[0], "us-first-ckpt-gap")
	}
	if fig6Res.Retransmits != 0 || fig6Res.Timeouts != 0 || fig6Res.DupData != 0 {
		b.Fatalf("checkpoint perturbed TCP: rtx=%d to=%d dup=%d",
			fig6Res.Retransmits, fig6Res.Timeouts, fig6Res.DupData)
	}
}

// BenchmarkFig7BitTorrent regenerates Figure 7: the 4-node swarm with a
// 100 s checkpoint storm; the throughput center line must not move.
func BenchmarkFig7BitTorrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig7Once.Do(func() { fig7Res = evalrun.Fig7(benchSeed, 512) })
	}
	b.ReportMetric(fig7Res.CenterBefore, "MB/s-before")
	b.ReportMetric(fig7Res.CenterDuring, "MB/s-during")
	b.ReportMetric(fig7Res.CenterAfter, "MB/s-after")
	lo, hi := fig7Res.CenterBefore*0.85, fig7Res.CenterBefore*1.15
	if fig7Res.CenterDuring < lo || fig7Res.CenterDuring > hi {
		b.Fatalf("center line moved: %.2f -> %.2f MB/s", fig7Res.CenterBefore, fig7Res.CenterDuring)
	}
}

// BenchmarkFig8Bonnie regenerates Figure 8: Bonnie++ over Base,
// Branch-Orig and Branch storage.
func BenchmarkFig8Bonnie(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig8Once.Do(func() { fig8Res = evalrun.Fig8(benchSeed, 256) })
	}
	b.ReportMetric(fig8Res.FreshWriteOverheadPct, "%fresh-overhead")
	b.ReportMetric(fig8Res.AgedWriteOverheadPct, "%aged-overhead")
	b.ReportMetric(fig8Res.OrigWriteSlowdownPct, "%orig-slowdown")
	if fig8Res.OrigWriteSlowdownPct < 50 {
		b.Fatalf("read-before-write penalty missing: %.0f%%", fig8Res.OrigWriteSlowdownPct)
	}
}

// BenchmarkFig9Background regenerates Figure 9: background transfer
// interference on a disk-bound workload.
func BenchmarkFig9Background(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig9Once.Do(func() { fig9Res = evalrun.Fig9(benchSeed, 512) })
	}
	b.ReportMetric(fig9Res.EagerOverheadPct, "%eager-exec-overhead")
	b.ReportMetric(fig9Res.LazyOverheadPct, "%lazy-exec-overhead")
	b.ReportMetric(fig9Res.LazyThroughputDropPct, "%lazy-tput-drop")
	if fig9Res.LazyOverheadPct < fig9Res.EagerOverheadPct {
		b.Fatal("lazy copy-in should cost more than eager pre-copy")
	}
}

// BenchmarkSwapCycles regenerates the §7.2 swap table: four consecutive
// stateful swap cycles, lazy vs eager, plus the disk-loaded slowdown.
func BenchmarkSwapCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		swapOnce.Do(func() { swapRes = evalrun.SwapTable(benchSeed) })
	}
	last := swapRes.Rows[len(swapRes.Rows)-1]
	b.ReportMetric(last.SwapOut.Seconds(), "s-swapout-c4")
	b.ReportMetric(last.SwapInLazy.Seconds(), "s-swapin-lazy-c4")
	b.ReportMetric(last.SwapInEager.Seconds(), "s-swapin-eager-c4")
	b.ReportMetric(swapRes.DiskLoadedOutPct, "%busy-slowdown")
	if last.SwapInEager < 2*last.SwapInLazy {
		b.Fatalf("lazy optimization ineffective by cycle 4: eager %.0fs vs lazy %.0fs",
			last.SwapInEager.Seconds(), last.SwapInLazy.Seconds())
	}
}

// BenchmarkFreeBlockElimination regenerates the §5.1 make/make-clean
// delta-shrink experiment (490 MB -> 36 MB in the paper).
func BenchmarkFreeBlockElimination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fbOnce.Do(func() { fbRes = evalrun.FreeBlockTable(benchSeed) })
	}
	b.ReportMetric(float64(fbRes.RawMB), "MB-raw-delta")
	b.ReportMetric(float64(fbRes.LiveMB), "MB-live-delta")
	if fbRes.LiveMB*4 > fbRes.RawMB {
		b.Fatalf("elimination weak: %d MB -> %d MB", fbRes.RawMB, fbRes.LiveMB)
	}
}

// BenchmarkSyncSkew regenerates the §4.3 synchronization comparison.
func BenchmarkSyncSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		syncOnce.Do(func() { syncRes = evalrun.SyncTable(benchSeed) })
	}
	b.ReportMetric(syncRes.ScheduledSkew.Micros(), "us-scheduled-skew")
	b.ReportMetric(syncRes.EventSkew.Micros(), "us-event-skew")
	if syncRes.EventSkew <= syncRes.ScheduledSkew {
		b.Fatal("scheduled checkpoints should beat event-driven ones")
	}
}

// BenchmarkDom0Jobs regenerates the §7.1 dom0-interference calibration.
func BenchmarkDom0Jobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		domOnce.Do(func() { domRes = evalrun.Dom0Jobs(benchSeed) })
	}
	b.ReportMetric(domRes.ExtraMs["ls /"], "ms-ls")
	b.ReportMetric(domRes.ExtraMs["sum vmlinux"], "ms-sum")
	b.ReportMetric(domRes.ExtraMs["xm list"], "ms-xmlist")
}

var (
	ablOnce sync.Once
	ablRes  *evalrun.AblationResult
)

// BenchmarkAblationDelayNodeCapture compares checkpointing with and
// without the §4.4 delay-node capture: without it, the bandwidth-delay
// product of the link lands in endpoint replay logs instead of the
// network core.
func BenchmarkAblationDelayNodeCapture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ablOnce.Do(func() { ablRes = evalrun.AblationDelayNode(benchSeed) })
	}
	b.ReportMetric(float64(ablRes.CapturedInCore), "pkts-in-core")
	b.ReportMetric(float64(ablRes.EndpointLogWith), "pkts-endpoint-with")
	b.ReportMetric(float64(ablRes.EndpointLogWithout), "pkts-endpoint-without")
	if ablRes.EndpointLogWithout <= ablRes.EndpointLogWith {
		b.Fatal("ablation shows no effect: delay-node capture not doing its job")
	}
}

var (
	tsOnce sync.Once
	tsRes  *evalrun.TimeshareResult
)

// BenchmarkTimeshare regenerates the multi-tenancy table comparing
// incremental (dirty-delta lineage), full-copy stateful, and stateless
// swapping on an oversubscribed pool. The incremental pipeline must
// move strictly fewer bytes and finish the 3-tenant scenario in less
// simulated time than full copies.
func BenchmarkTimeshare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The default 900-tick workload forces repeat preemptions per
		// tenant; shorter targets park each tenant only once, and a
		// first swap-out is always a full save (no base on the server),
		// which would make the two stateful modes indistinguishable.
		tsOnce.Do(func() { tsRes = evalrun.Timeshare(benchSeed, 0) })
	}
	b.ReportMetric(tsRes.StatefulIncr.MovedMB, "MB-incremental")
	b.ReportMetric(tsRes.Stateful.MovedMB, "MB-fullcopy")
	b.ReportMetric(tsRes.StatefulIncr.AllDoneS, "s-done-incremental")
	b.ReportMetric(tsRes.Stateful.AllDoneS, "s-done-fullcopy")
	b.ReportMetric(tsRes.StatefulIncr.PreemptedMB, "MB-preempted-incremental")
	if tsRes.StatefulIncr.MovedMB >= tsRes.Stateful.MovedMB {
		b.Fatalf("incremental swap moved %.0f MB, full-copy %.0f MB",
			tsRes.StatefulIncr.MovedMB, tsRes.Stateful.MovedMB)
	}
	if tsRes.StatefulIncr.AllDoneS <= 0 || tsRes.StatefulIncr.AllDoneS >= tsRes.Stateful.AllDoneS {
		b.Fatalf("incremental finished at %.0f s, full-copy at %.0f s",
			tsRes.StatefulIncr.AllDoneS, tsRes.Stateful.AllDoneS)
	}
}

var (
	brOnce sync.Once
	brRes  *evalrun.BranchResult
)

// BenchmarkBranch regenerates the branch fan-out table: the same 4-way
// fork of a checkpointed parent staged via the refcounted shared
// lineage (one multicast pass, clone-aware restore) versus naive
// per-branch full copies. Sharing must move strictly fewer control-LAN
// bytes and have the whole frontier in service strictly sooner.
func BenchmarkBranch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		brOnce.Do(func() { brRes = evalrun.BranchTable(benchSeed, 4) })
	}
	b.ReportMetric(brRes.Shared.MovedMB, "MB-shared")
	b.ReportMetric(brRes.Naive.MovedMB, "MB-naive")
	b.ReportMetric(brRes.Shared.AllRunningS, "s-frontier-shared")
	b.ReportMetric(brRes.Naive.AllRunningS, "s-frontier-naive")
	b.ReportMetric(brRes.Shared.MulticastSavedMB, "MB-mcast-saved")
	if brRes.Shared.AllRunningS <= 0 || brRes.Naive.AllRunningS <= 0 {
		b.Fatalf("fan-out frontier never fully in service: shared %.0f s, naive %.0f s",
			brRes.Shared.AllRunningS, brRes.Naive.AllRunningS)
	}
	if brRes.Shared.MovedMB >= brRes.Naive.MovedMB {
		b.Fatalf("shared fan-out moved %.0f MB, naive %.0f MB — no byte savings",
			brRes.Shared.MovedMB, brRes.Naive.MovedMB)
	}
	if brRes.Shared.AllRunningS >= brRes.Naive.AllRunningS {
		b.Fatalf("shared frontier live at %.0f s, naive at %.0f s — no wall-clock win",
			brRes.Shared.AllRunningS, brRes.Naive.AllRunningS)
	}
}

var (
	recOnce sync.Once
	recRes  *evalrun.RecoveryResult
)

// BenchmarkRecovery regenerates the crash-recovery table: a two-node
// tenant fail-stopped mid-run, revived from its last committed
// checkpoint epoch (across epoch periods) versus restarted from
// scratch. At the default epoch period, checkpoint recovery must
// strictly beat restart on both MTTR (time back to pre-crash progress)
// and lost work — the acceptance bar for making checkpoints durable.
func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recOnce.Do(func() { recRes = evalrun.Recovery(benchSeed, false) })
	}
	rec := recRes.Row("recover@15s")
	rst := recRes.Row("restart")
	if rec == nil || rst == nil {
		b.Fatalf("missing rows: %+v", recRes.Rows)
	}
	b.ReportMetric(rec.MTTRS, "s-mttr-recover")
	b.ReportMetric(rst.MTTRS, "s-mttr-restart")
	b.ReportMetric(rec.LostWorkS, "s-lost-recover")
	b.ReportMetric(rst.LostWorkS, "s-lost-restart")
	b.ReportMetric(rec.BackInServiceS, "s-back-in-service")
	if !rec.Recovered {
		b.Fatalf("checkpoint recovery never restored pre-crash progress: %+v", rec)
	}
	if rec.MTTRS >= rst.MTTRS {
		b.Fatalf("recovery MTTR %.0f s, restart %.0f s — no repair-time win", rec.MTTRS, rst.MTTRS)
	}
	if rec.LostWorkS >= rst.LostWorkS {
		b.Fatalf("recovery lost %.1f s of work, restart %.1f s — no lost-work win", rec.LostWorkS, rst.LostWorkS)
	}
}

var (
	stOnce sync.Once
	stRes  *evalrun.StorageResult
)

// BenchmarkStorageCache regenerates the tiered-storage table: the same
// fleet of tenants parked and resumed over the remote chain tier, with
// and without the node-local delta cache. Cached restores must move
// strictly fewer remote MB and have the fleet back in service strictly
// sooner than the uncached remote baseline — the acceptance bar for
// the delta cache (commit-time fills plus prefetch overlap must beat
// re-streaming every chain on every resume).
func BenchmarkStorageCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stOnce.Do(func() { stRes = evalrun.StorageTable(benchSeed, 4) })
	}
	b.ReportMetric(stRes.Cached.RemoteMB, "MB-remote-cached")
	b.ReportMetric(stRes.Uncached.RemoteMB, "MB-remote-uncached")
	b.ReportMetric(stRes.Cached.MeanRestoreS, "s-restore-cached")
	b.ReportMetric(stRes.Uncached.MeanRestoreS, "s-restore-uncached")
	b.ReportMetric(stRes.Cached.HitRatio*100, "%cache-hits")
	if stRes.Cached.Restores != stRes.Cycles || stRes.Uncached.Restores != stRes.Cycles {
		b.Fatalf("fleet never finished its cycles: cached %d, uncached %d of %d",
			stRes.Cached.Restores, stRes.Uncached.Restores, stRes.Cycles)
	}
	if stRes.Cached.RemoteMB >= stRes.Uncached.RemoteMB {
		b.Fatalf("cached restores moved %.0f remote MB, uncached %.0f — no byte savings",
			stRes.Cached.RemoteMB, stRes.Uncached.RemoteMB)
	}
	if stRes.Cached.MeanRestoreS >= stRes.Uncached.MeanRestoreS {
		b.Fatalf("cached restores took %.1f s, uncached %.1f s — no latency win",
			stRes.Cached.MeanRestoreS, stRes.Uncached.MeanRestoreS)
	}
}

// scaleCost is one one-facility federation fleet run with the
// scheduler's decision work wall-clocked (sched.Instrument).
type scaleCost struct {
	tenants, completed int
	// decisionUS is the mean host microseconds of scheduler work per
	// decision (DecisionNanos over admissions plus preemptions).
	decisionUS              float64
	eventsPerMS, ticksPerMS float64
}

func runScaleCost(n int) scaleCost {
	start := time.Now()
	fed := federation.New(federation.Config{Facilities: 1, Tenants: n, Seed: benchSeed})
	d := fed.Facilities[0].Sched
	// Placement admits the first pool-full inside New, untimed; every
	// decision the run itself makes is wall-clocked.
	d.Instrument = true
	r := fed.Run()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	c := scaleCost{tenants: n, completed: r.Completed,
		eventsPerMS: float64(r.Events) / ms, ticksPerMS: float64(r.Ticks) / ms}
	if dec := d.Admissions + d.Preemptions; dec > 0 {
		c.decisionUS = float64(d.DecisionNanos) / 1e3 / float64(dec)
	}
	return c
}

var (
	scaleOnce         sync.Once
	scale1k, scale10k scaleCost
)

// BenchmarkScale runs the one-facility federation fleet (the scale
// table's fleet) at 1k and 10k tenants and asserts the scheduler hot
// path scales sub-linearly: growing the fleet 10x (over a pool that
// stops growing at 256 nodes) must grow the mean wall-clock cost per
// scheduler decision by well under 10x — the indexed queue/victim
// structures' acceptance bar. Decision cost is wall-clock and includes
// the chain-restore pricing the admission hook runs, so the bound is
// deliberately loose (8x against a ~1.3x measured ratio); a
// linear-scan regression shows up as ~40x and fails regardless of
// machine noise.
func BenchmarkScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scaleOnce.Do(func() { scale1k, scale10k = runScaleCost(1000), runScaleCost(10000) })
	}
	r1k, r10k := scale1k, scale10k
	b.ReportMetric(r1k.decisionUS, "us/decision-1k")
	b.ReportMetric(r10k.decisionUS, "us/decision-10k")
	b.ReportMetric(r10k.ticksPerMS, "ticks/wallms-10k")
	b.ReportMetric(r10k.eventsPerMS, "events/wallms-10k")
	if r1k.completed != r1k.tenants || r10k.completed != r10k.tenants {
		b.Fatalf("fleet did not drain: %d/%d at 1k, %d/%d at 10k",
			r1k.completed, r1k.tenants, r10k.completed, r10k.tenants)
	}
	if r1k.decisionUS <= 0 || r10k.decisionUS >= 8*r1k.decisionUS {
		b.Fatalf("decision cost grew super-linearly: %.2f us at 1k -> %.2f us at 10k",
			r1k.decisionUS, r10k.decisionUS)
	}
}

var (
	sbOnce               sync.Once
	sbSerialMS, sbPar4MS float64
	sbIdentical          bool
)

// BenchmarkSuiteParallel times the 24-scenario generated matrix run
// serially and on 4 workers. The report must be byte-identical at both
// widths (parallelism only moves the wall clock). The >=2x speedup bar
// at 4 workers is the parallel runner's acceptance criterion; it only
// holds where 4 cores exist, so it is gated on NumCPU (a smaller box
// still checks identity and reports its speedup as a metric).
func BenchmarkSuiteParallel(b *testing.B) {
	const count = 24
	timed := func(workers int) ([]byte, float64) {
		start := time.Now()
		rep := suite.RunMatrixParallel(benchSeed, count, workers)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		return out, ms
	}
	for i := 0; i < b.N; i++ {
		sbOnce.Do(func() {
			var serial, par []byte
			serial, sbSerialMS = timed(1)
			par, sbPar4MS = timed(4)
			sbIdentical = bytes.Equal(serial, par)
		})
	}
	speedup := sbSerialMS / sbPar4MS
	b.ReportMetric(count/(sbSerialMS/1e3), "scen/s-serial")
	b.ReportMetric(count/(sbPar4MS/1e3), "scen/s-4workers")
	b.ReportMetric(speedup, "x-speedup-4workers")
	if !sbIdentical {
		b.Fatal("report at 4 workers is not byte-identical to serial")
	}
	if runtime.NumCPU() >= 4 && speedup < 2 {
		b.Fatalf("parallel corpus run only %.2fx faster at 4 workers on %d CPUs (want >=2x)",
			speedup, runtime.NumCPU())
	}
}

var (
	fedOnce                    sync.Once
	fedSerial, fedPar, fedCold federation.Result
	fedSerialMS, fedParMS      float64
)

// BenchmarkFederation times the 10k-tenant fleet over 4 facilities,
// serial vs 4 facility-workers. The digest must be byte-identical at
// both worker counts (the worker pool only moves the wall clock), the
// fleet must migrate, and warm-up must strictly cut the shared-pool
// restore traffic against a cold serial run. The >=2x speedup bar at 4
// facility-workers holds only where 4 cores exist, so — like
// BenchmarkSuiteParallel — it is gated on NumCPU; a smaller box still
// checks identity and reports its speedup.
func BenchmarkFederation(b *testing.B) {
	cfg := federation.Config{Facilities: 4, Tenants: 10000, Seed: benchSeed, Migration: true}
	timed := func(workers int, warm bool) (federation.Result, float64) {
		c := cfg
		c.Workers, c.WarmUp = workers, warm
		start := time.Now()
		r := federation.Run(c)
		return *r, float64(time.Since(start).Nanoseconds()) / 1e6
	}
	for i := 0; i < b.N; i++ {
		fedOnce.Do(func() {
			fedSerial, fedSerialMS = timed(1, true)
			fedPar, fedParMS = timed(4, true)
			fedCold, _ = timed(1, false)
		})
	}
	speedup := fedSerialMS / fedParMS
	b.ReportMetric(fedSerialMS, "wallms-serial")
	b.ReportMetric(fedParMS, "wallms-4workers")
	b.ReportMetric(speedup, "x-speedup-4workers")
	if fedPar.Digest != fedSerial.Digest {
		b.Fatalf("digest at 4 workers diverged from serial: %s vs %s", fedPar.Digest, fedSerial.Digest)
	}
	if fedSerial.Migrations == 0 {
		b.Fatal("sharded 10k fleet migrated nothing")
	}
	if fedSerial.RemoteMB >= fedCold.RemoteMB {
		b.Fatalf("warm-up did not cut remote restore traffic: %.1f MB warm vs %.1f MB cold",
			fedSerial.RemoteMB, fedCold.RemoteMB)
	}
	if runtime.NumCPU() >= 4 && speedup < 2 {
		b.Fatalf("federated run only %.2fx faster at 4 facility-workers on %d CPUs (want >=2x)",
			speedup, runtime.NumCPU())
	}
}

// BenchmarkCheckpointLatency measures the raw cost of one incremental
// distributed checkpoint on an idle 2-node experiment — an ablation for
// the downtime the firewall conceals.
func BenchmarkCheckpointLatency(b *testing.B) {
	s := emucheck.NewSession(emucheck.Scenario{Spec: demoSpecForBench()}, benchSeed)
	s.RunFor(sim.Second)
	if _, err := s.Checkpoint(); err != nil { // absorb the full save
		b.Fatal(err)
	}
	b.ResetTimer()
	var worst sim.Time
	for i := 0; i < b.N; i++ {
		s.RunFor(sim.Second)
		res, err := s.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if d := res.MaxDowntime(); d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst.Millis(), "ms-worst-downtime")
}
