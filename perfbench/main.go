// Command perfbench is emucheck's end-to-end benchmark. It runs one
// seeded workload — fleet, swapchurn or fanout — on the real Cluster
// stack (scheduler, swap, xfer, storage, checkpoint core, Xen,
// firewall, guest kernels, simnet and dummynet over the event
// simulator), checks every pass's outcome, and prints every metric by
// name with its unit, then one JSON object as the last line.
//
//	perfbench --workload fleet --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics. With
// --trace 1 untraced and traced passes alternate and it carries the
// per-layer metrics: counts, host time per call from the spans the
// benchmark records around its calls into each layer, and per-layer
// CPU and allocation shares from profiles of the traced passes. See
// README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	wl      *workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet, swapchurn or fanout")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "host seconds to keep repeating passes for")
	trace := fs.Int("trace", 0, "1: per-layer metrics from traced passes; 0: end-to-end metrics")
	outDir := fs.String("out-dir", "", "directory for span files of traced runs (none if empty)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o := &options{wl: findWorkload(*name), seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	switch {
	case o.wl == nil:
		return nil, fmt.Errorf("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("--trace must be 0 or 1")
	case *seconds <= 0:
		return nil, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	// One simulator is single-threaded; cap the runtime at the CPUs
	// the machine has (and at two, the size the baseline was taken
	// on) so GC workers do not compete with other runs' processes.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	if o.trace {
		runtime.MemProfileRate = 64 << 10
	} else {
		runtime.MemProfileRate = 0
	}
	res, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	summary summary
	report  []string
}

// pass is one execution of the workload's closed batch.
type pass struct {
	traced     bool
	setupS     float64
	wallS      float64
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
	busyCPU    float64
	gcCycles   uint64
	peakHeap   uint64
	out        outcome
	digest     uint64
	ops        int
	failed     int
	failures   []string
	// Traced passes only.
	tr           *tracer
	spans        map[string]spanStat
	cpuByLayer   map[string]int64
	allocByLayer map[string]int64
	decisions    uint64
	decisionNs   int64
}

// minPasses is the fewest passes of each kind a run makes, however
// long they take, so every host figure is a median of at least three.
const minPasses = 3

// setupSamples is how many set-ups a run times for setup_s: each pass
// contributes one, and extra set-ups, torn down untouched, make up the
// rest.
const setupSamples = 41

func measure(o *options, stderr io.Writer) (*result, error) {
	start := time.Now()
	var setups []float64
	var passes []*pass
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		p, err := runPass(o.wl, o.seed, traced)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		setups = append(setups, p.setupS)
		fmt.Fprintf(stderr, "pass %d traced=%v setup=%.4fs wall=%.3fs events=%d digest=%016x failed=%d\n",
			i, traced, p.setupS, p.wallS, p.out.events, p.digest, p.failed)
		for _, f := range p.failures {
			fmt.Fprintln(stderr, "  failure:", f)
		}
		n := len(passes)
		if o.trace {
			n = len(passes) / 2
		}
		if n >= minPasses && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	for len(setups) < setupSamples {
		s, err := timeSetup(o.wl, o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	res := &result{}
	sum := &res.summary
	sum.Correct = true
	var ref *pass
	for _, p := range passes {
		sum.Attempted += p.ops
		sum.Failed += p.failed
		if ref == nil {
			ref = p
		} else if p.digest != ref.digest {
			sum.Failed++
			fmt.Fprintf(stderr, "perfbench: digest %016x (traced=%v) differs from %016x (traced=%v)\n",
				p.digest, p.traced, ref.digest, ref.traced)
		}
	}
	if sum.Failed > 0 {
		sum.Correct = false
	}
	e2e := endToEnd(passes, setups)
	var layerMs []namedMetric
	if o.trace {
		layerMs = perLayer(passes)
		if o.outDir != "" {
			if err := writeTrace(o, passes, stderr); err != nil {
				return nil, err
			}
		}
	}
	report := []string{fmt.Sprintf("workload %s seed %d: %d passes, digest %016x, %d ops, %d failed",
		o.wl.name, o.seed, len(passes), ref.digest, sum.Attempted, sum.Failed)}
	report = append(report, renderMetrics("end-to-end", e2e)...)
	t := ref.out.resumeTail
	report = append(report, fmt.Sprintf("  resume tail is p%g of %d resumes (%d beyond)", t.Pct, t.Samples, t.Beyond))
	sum.Metrics = make(map[string]metric)
	shown := e2e
	if o.trace {
		report = append(report, renderMetrics("per-layer", layerMs)...)
		all := make(map[string]spanStat)
		for _, p := range passes {
			if p.traced {
				mergeSpanStats(all, p.spans)
			}
		}
		report = append(report, "spans over all traced passes:")
		report = append(report, renderSpanTable(all)...)
		shown = layerMs
	}
	for _, m := range shown {
		sum.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	res.report = report
	return res, nil
}

// writeTrace writes the last traced pass's spans as JSON Lines.
func writeTrace(o *options, passes []*pass, stderr io.Writer) error {
	for i := len(passes) - 1; i >= 0; i-- {
		if p := passes[i]; p.tr != nil {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.jsonl", o.wl.name, o.seed))
			if err := p.tr.writeSpans(path); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "spans of the last traced pass: %s\n", path)
			return nil
		}
	}
	return nil
}

// timeSetup builds the workload once more and discards it, returning
// the set-up time.
func timeSetup(wl *workload, seed int64) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	_, err := wl.build(seed, nil)
	return time.Since(t0).Seconds(), err
}

// Runtime metrics read around each RunFor slice. The slice is reused
// so that reading allocates nothing inside the measured interval.
var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

type rtStats struct {
	allocBytes, allocObjs, liveHeap, gcCycles uint64
	gcCPU, totalCPU, idleCPU                  float64
}

func readRuntime() rtStats {
	metrics.Read(rtSamples)
	u := func(i int) uint64 {
		if rtSamples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return rtSamples[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if rtSamples[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return rtSamples[i].Value.Float64()
	}
	return rtStats{u(0), u(1), u(2), u(3), f(4), f(5), f(6)}
}

// runPass builds the workload and runs it to completion. The timed
// part is the sum of the RunFor slices; sampling, auditing and
// profiling happen between slices, outside it.
func runPass(wl *workload, seed int64, traced bool) (*pass, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	runtime.GC()
	t0 := time.Now()
	w, err := wl.build(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	p := &pass{traced: traced, setupS: time.Since(t0).Seconds()}
	if traced {
		w.c.Sched.Instrument = true
	}

	var cpuBuf bytes.Buffer
	var allocBefore *profile
	if traced {
		runtime.GC()
		if allocBefore, err = allocProfile(); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	before := readRuntime()
	var queuePeak int
	var peakStored int64
	for w.remaining > 0 && w.c.Now() < wl.horizon {
		sp := tr.begin(spRunFor, w.c.Now())
		a := readRuntime()
		s := time.Now()
		w.c.RunFor(wl.slice)
		p.wallS += time.Since(s).Seconds()
		b := readRuntime()
		tr.end(sp, w.c.Now())
		p.allocBytes += b.allocBytes - a.allocBytes
		p.allocObjs += b.allocObjs - a.allocObjs
		if b.liveHeap > p.peakHeap {
			p.peakHeap = b.liveHeap
		}
		if q := w.c.S.Pending(); q > queuePeak {
			queuePeak = q
		}
		if sb := w.c.Chains.StoredBytes(); sb > peakStored {
			peakStored = sb
		}
		if errs := w.audit(); len(errs) > 0 {
			w.fail("chain store audit: %d errors, first: %v", len(errs), errs[0])
		}
	}
	after := readRuntime()
	p.gcCPU = after.gcCPU - before.gcCPU
	p.busyCPU = (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	p.gcCycles = after.gcCycles - before.gcCycles
	if traced {
		pprof.StopCPUProfile()
		cpu, err := parseProfile(cpuBuf.Bytes())
		if err != nil {
			return nil, err
		}
		p.cpuByLayer = byLayer(cpu, cpu.column("cpu"))
		runtime.GC()
		allocAfter, err := allocProfile()
		if err != nil {
			return nil, err
		}
		p.allocByLayer = diffLayers(byLayer(allocAfter, allocAfter.column("alloc_objects")),
			byLayer(allocBefore, allocBefore.column("alloc_objects")))
		p.decisions = w.c.Sched.Kicks
		p.decisionNs = w.c.Sched.DecisionNanos
		p.tr = tr
		p.spans = tr.summary()
	}
	w.endChecks(wl.horizon)
	p.out = w.outcome(queuePeak, peakStored)
	p.digest = w.digest()
	p.ops, p.failed, p.failures = w.ops, w.failed, w.failures
	return p, nil
}

func allocProfile() (*profile, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes())
}

// diffLayers returns after − before per layer.
func diffLayers(after, before map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// outcome is what a pass simulated. Every field is in the simulation
// domain, so one seed gives the same outcome in every pass.
type outcome struct {
	counts
	makespan, queueWait     float64
	parkP50, resumeP50      float64
	resumeTail              tailStat
	frontierP50, movedGB    float64
	events                  uint64
	queuePeak               int
	ckptP50, skewP50        float64
	cacheHits, cacheMisses  int64
	evictions               int64
	hitRatio                float64
	remoteMB, localMB       float64
	storedMB, outMB, inMB   float64
	xferQueued, xferBacklog float64
	batches                 int64
	mcastSavedMB            float64
	preemptions             int
	utilization             float64
	published, busDelivered uint64
	busDropped              uint64
}

const mb = 1 << 20

func (w *world) outcome(queuePeak int, peakStored int64) outcome {
	c := w.c
	o := outcome{
		makespan:    w.lastFinish.Seconds(),
		queueWait:   c.Sched.MeanQueueWait().Seconds(),
		parkP50:     median(w.parkLat),
		resumeP50:   median(w.resumeLat),
		resumeTail:  tail(w.resumeLat),
		frontierP50: median(w.frontier),
		movedGB:     float64(c.TB.Server.Received+c.TB.Server.Served) / 1e9,
		events:      c.S.Fired(),
		queuePeak:   queuePeak,
		counts:      w.counts,
		ckptP50:     median(w.ckptLat), skewP50: median(w.skews),
		storedMB:     float64(peakStored) / mb,
		xferQueued:   c.TB.Server.Queued.Seconds(),
		xferBacklog:  c.TB.Server.MaxBacklog.Seconds(),
		batches:      c.TB.Server.Batches,
		mcastSavedMB: float64(c.TB.Server.MulticastSavedBytes) / mb,
		preemptions:  c.Sched.Preemptions,
		utilization:  c.Utilization(),
		published:    c.TB.Bus.Published, busDelivered: c.TB.Bus.Delivered, busDropped: c.TB.Bus.Dropped,
	}
	if cache := c.DeltaCache(); cache != nil {
		st := cache.Stats()
		o.cacheHits, o.cacheMisses, o.evictions = st.Hits, st.Misses, st.Evictions
		o.hitRatio = cache.HitRatio()
	}
	o.remoteMB = float64(c.SwapStats.Get("storage.remote_bytes")) / mb
	o.localMB = float64(c.SwapStats.Get("storage.local_bytes")) / mb
	for _, n := range c.SwapStats.Names() {
		switch {
		case strings.HasPrefix(n, "out."):
			o.outMB += float64(c.SwapStats.Get(n)) / mb
		case strings.HasPrefix(n, "in."):
			o.inMB += float64(c.SwapStats.Get(n)) / mb
		}
	}
	return o
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

func hostMedian(passes []*pass, traced bool, f func(*pass) float64) float64 {
	var xs []float64
	for _, p := range passes {
		if p.traced == traced {
			xs = append(xs, f(p))
		}
	}
	return median(xs)
}

// endToEnd: host figures are medians over the run's untraced passes;
// simulated figures are the (identical) outcome of any pass.
func endToEnd(passes []*pass, setups []float64) []namedMetric {
	o := passes[0].out
	return []namedMetric{
		{"wall_s", hostMedian(passes, false, func(p *pass) float64 { return p.wallS }), "s"},
		{"setup_s", median(setups), "s"},
		{"alloc_mb", hostMedian(passes, false, func(p *pass) float64 { return float64(p.allocBytes) / mb }), "MB"},
		{"peak_heap_mb", hostMedian(passes, false, func(p *pass) float64 { return float64(p.peakHeap) / mb }), "MB"},
		{"makespan_sim_s", o.makespan, "s"},
		{"queue_wait_sim_s", o.queueWait, "s"},
		{"park_p50_sim_s", o.parkP50, "s"},
		{"resume_p50_sim_s", o.resumeP50, "s"},
		{"resume_tail_sim_s", o.resumeTail.Value, "s"},
		{"frontier_p50_sim_s", o.frontierP50, "s"},
		{"moved_gb", o.movedGB, "GB"},
	}
}

// layers lists every layer the per-package profile shares are
// reported for: the program's packages on the benchmarked path, this
// benchmark's own code, the Go runtime, and "other" for the rest.
var layers = []string{
	"sim", "guest", "firewall", "simnet", "dummynet", "storage", "swap", "xfer",
	"sched", "core", "notify", "emulab", "xen", "node", "vclock", "ntpsim",
	"timetravel", "metrics", "emucheck", "perfbench", "runtime", "other",
}

// ratio is num/den, or 0 when there is no base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer derives the per-layer metrics. Counts come from the
// simulated outcome; the program's own host costs (time and
// allocations per event, GC) from the untraced passes; per-call host
// times and the per-package shares from the traced passes.
func perLayer(passes []*pass) []namedMetric {
	o := passes[0].out
	var uWall, uEvents, uObjs, uBytes, uGC, uBusy float64
	var tEvents, tPasses float64
	cpu := make(map[string]int64)
	allocs := make(map[string]int64)
	spans := make(map[string]spanStat)
	var decisions uint64
	var decisionNs int64
	var gcCycles []float64
	for _, p := range passes {
		if !p.traced {
			uWall += p.wallS
			uEvents += float64(p.out.events)
			uObjs += float64(p.allocObjs)
			uBytes += float64(p.allocBytes)
			uGC += p.gcCPU
			uBusy += p.busyCPU
			gcCycles = append(gcCycles, float64(p.gcCycles))
			continue
		}
		tPasses++
		tEvents += float64(p.out.events)
		for k, v := range p.cpuByLayer {
			cpu[k] += v
		}
		for k, v := range p.allocByLayer {
			allocs[k] += v
		}
		mergeSpanStats(spans, p.spans)
		decisions += p.decisions
		decisionNs += p.decisionNs
	}
	perCall := func(name string, scale float64) float64 {
		s := spans[name]
		return ratio(float64(s.HostNs)/scale, float64(s.Count))
	}
	hooks := spans[spPark]
	res := spans[spResume]
	ms := []namedMetric{
		{"sim.events", float64(o.events), "count"},
		{"sim.ns_per_event", ratio(uWall*1e9, uEvents), "ns"},
		{"sim.allocs_per_event", ratio(uObjs, uEvents), "count"},
		{"sim.bytes_per_event", ratio(uBytes, uEvents), "B"},
		{"sim.queue_peak", float64(o.queuePeak), "count"},
		{"runtime.gc_cpu_frac", ratio(uGC, uBusy), "ratio"},
		{"runtime.gc_cycles", median(gcCycles), "count"},
		{"guest.usleep_calls", float64(o.usleeps), "count"},
		{"guest.usleep_ns", perCall(fineNames[fineUsleep], 1), "ns"},
		{"guest.ticks", float64(o.ticks), "count"},
		{"simnet.sends", float64(o.sends), "count"},
		{"simnet.delivered", ratio(float64(o.delivered), float64(o.sends)), "ratio"},
		{"simnet.send_ns", perCall(fineNames[fineSend], 1), "ns"},
		{"storage.cache_hit_ratio", o.hitRatio, "ratio"},
		{"storage.cache_hits", float64(o.cacheHits), "count"},
		{"storage.cache_misses", float64(o.cacheMisses), "count"},
		{"storage.remote_mb", o.remoteMB, "MB"},
		{"storage.local_mb", o.localMB, "MB"},
		{"storage.stored_mb", o.storedMB, "MB"},
		{"storage.evictions", float64(o.evictions), "count"},
		{"storage.audit_us", perCall(spAudit, 1e3), "us"},
		{"swap.parks", float64(o.parks), "count"},
		{"swap.resumes", float64(o.resumes), "count"},
		{"swap.hook_us", ratio(float64(hooks.HostNs+res.HostNs)/1e3, float64(hooks.Count+res.Count)), "us"},
		{"swap.out_mb", o.outMB, "MB"},
		{"swap.in_mb", o.inMB, "MB"},
		{"swap.errors", float64(o.hookErrors), "count"},
		{"swap.resume_tail_pct", o.resumeTail.Pct, "pct"},
		{"xfer.queued_sim_s", o.xferQueued, "s"},
		{"xfer.max_backlog_sim_s", o.xferBacklog, "s"},
		{"xfer.batches", float64(o.batches), "count"},
		{"xfer.multicast_saved_mb", o.mcastSavedMB, "MB"},
		{"sched.decisions", ratio(float64(decisions), tPasses), "count"},
		{"sched.preemptions", float64(o.preemptions), "count"},
		{"sched.decision_us", ratio(float64(decisionNs)/1e3, float64(decisions)), "us"},
		{"sched.parkcost_calls", float64(o.parkCosts), "count"},
		{"sched.parkcost_us", perCall(fineNames[fineParkCost], 1e3), "us"},
		{"sched.utilization", o.utilization, "ratio"},
		{"core.checkpoints", float64(o.checkpoints), "count"},
		{"core.aborted", float64(o.aborted), "count"},
		{"core.checkpoint_sim_s", o.ckptP50, "s"},
		{"core.suspend_skew_us", o.skewP50 * 1e6, "us"},
		{"notify.published", float64(o.published), "count"},
		{"notify.delivered", float64(o.busDelivered), "count"},
		{"notify.dropped", float64(o.busDropped), "count"},
		{"emucheck.submit_us", perCall(spSubmit, 1e3), "us"},
		{"emucheck.branch_us", perCall(spBranch, 1e3), "us"},
		{"emucheck.finish_us", perCall(spFinish, 1e3), "us"},
		{"trace.overhead_s", hostMedian(passes, true, func(p *pass) float64 { return p.wallS }) -
			hostMedian(passes, false, func(p *pass) float64 { return p.wallS }), "s"},
	}
	var cpuTotal int64
	for _, v := range cpu {
		cpuTotal += v
	}
	known := make(map[string]bool)
	for _, l := range layers {
		known[l] = true
	}
	foldOther := func(m map[string]int64) map[string]int64 {
		out := make(map[string]int64)
		for k, v := range m {
			if !known[k] {
				k = "other"
			}
			out[k] += v
		}
		return out
	}
	cpu, allocs = foldOther(cpu), foldOther(allocs)
	for _, l := range layers {
		allocName := l + ".allocs_per_event"
		if l == "sim" {
			// sim.allocs_per_event is the whole program's figure above.
			allocName = "sim.own_allocs_per_event"
		}
		ms = append(ms,
			namedMetric{l + ".cpu_frac", ratio(float64(cpu[l]), float64(cpuTotal)), "ratio"},
			namedMetric{allocName, ratio(float64(allocs[l]), tEvents), "count"})
	}
	return ms
}

func renderMetrics(title string, ms []namedMetric) []string {
	lines := []string{title + ":"}
	for _, m := range ms {
		lines = append(lines, fmt.Sprintf("  %-28s %16.6g %s", m.name, m.value, m.unit))
	}
	return lines
}
