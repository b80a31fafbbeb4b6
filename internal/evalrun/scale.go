package evalrun

import (
	"fmt"
	"time"

	"emucheck/internal/federation"
	"emucheck/internal/metrics"
)

// ScaleRow is one fleet size's outcome: the federation's seeded
// synthetic tenant population on a single facility, driven through
// the scheduler/event hot path (admission, preemption, voluntary
// park/unpark cycles, chain restores, per-tenant activity ticks,
// scoped control-LAN traffic), with the scheduler's decision work
// wall-clocked. Simulation-domain fields (everything the Digest
// covers) are bit-deterministic under the seed; wall-clock fields
// (wall_ms, mean_decision_us, *_per_wall_ms) measure this machine.
type ScaleRow struct {
	Tenants int `json:"tenants"`
	Pool    int `json:"pool"`
	// Oversub is tenant demand over pool capacity (Need=1 per tenant).
	Oversub   float64 `json:"oversubscription"`
	Completed int     `json:"completed"`
	SimS      float64 `json:"sim_s"`
	WallMS    float64 `json:"wall_ms"`
	// Events counts simulator events delivered; Ticks counts tenant
	// activity ticks (the workload's unit of useful progress).
	Events uint64 `json:"events"`
	Ticks  int64  `json:"ticks"`
	// Published/Delivered count scoped control-LAN bus traffic.
	Published   uint64 `json:"published"`
	Delivered   uint64 `json:"delivered"`
	Admissions  int    `json:"admissions"`
	Preemptions int    `json:"preemptions"`
	// Decisions = Admissions + Preemptions; MeanDecisionUS is the mean
	// wall-clock microseconds of scheduler work per decision
	// (DecisionNanos / Decisions) — the quantity that must stay flat as
	// the fleet grows for the indexed hot path to count as sub-linear.
	Decisions      int     `json:"decisions"`
	MeanDecisionUS float64 `json:"mean_decision_us"`
	MeanWaitS      float64 `json:"mean_queue_wait_s"`
	Utilization    float64 `json:"utilization"`
	// Throughput normalizations for the trajectory: simulated progress
	// per wall millisecond.
	EventsPerWallMS float64 `json:"events_per_wall_ms"`
	TicksPerWallMS  float64 `json:"ticks_per_wall_ms"`
	// Digest is the one-facility federation digest (federation.Digest):
	// same seed + same fleet size must reproduce it byte for byte, on
	// any machine.
	Digest string `json:"digest"`
}

// ScaleResult is the oversubscription-at-scale benchmark: the
// one-facility federation fleet instantiated at increasing tenant
// counts over a pool that stops growing at 256 nodes, so the large
// sizes measure genuine oversubscription (docs/scale.md).
type ScaleResult struct {
	Seed int64      `json:"seed"`
	Rows []ScaleRow `json:"rows"`
}

// scaleRow runs the federation fleet at n tenants on one facility —
// pool sized by federation's clamp(n/4, 4, 256) default — with the
// scheduler's decision work wall-clocked, and reads the row off the
// facility's exported state.
func scaleRow(seed int64, n int) ScaleRow {
	start := time.Now()
	fed := federation.New(federation.Config{Facilities: 1, Tenants: n, Seed: seed})
	fac := fed.Facilities[0]
	d := fac.Sched
	// Placement admits the first pool-full inside New, untimed; every
	// decision the run itself makes is wall-clocked.
	d.Instrument = true
	r := fed.Run()
	wall := time.Since(start)

	row := ScaleRow{
		Tenants: n, Pool: d.Capacity,
		Oversub:     float64(n) / float64(d.Capacity),
		Completed:   r.Completed,
		SimS:        r.SimS,
		WallMS:      float64(wall.Nanoseconds()) / 1e6,
		Events:      r.Events,
		Ticks:       r.Ticks,
		Published:   fac.Bus.Published,
		Delivered:   fac.Bus.Delivered,
		Admissions:  d.Admissions,
		Preemptions: d.Preemptions,
		Decisions:   d.Admissions + d.Preemptions,
		MeanWaitS:   d.MeanQueueWait().Seconds(),
		Utilization: d.Utilization(),
		Digest:      r.Digest,
	}
	if row.Decisions > 0 {
		row.MeanDecisionUS = float64(d.DecisionNanos) / 1e3 / float64(row.Decisions)
	}
	if ms := row.WallMS; ms > 0 {
		row.EventsPerWallMS = float64(row.Events) / ms
		row.TicksPerWallMS = float64(row.Ticks) / ms
	}
	return row
}

// Scale runs the fleet at each size and reports the tenant count vs
// throughput / decision-cost trajectory.
func Scale(seed int64, sizes []int) *ScaleResult {
	if len(sizes) == 0 {
		sizes = []int{16, 128, 1000, 10000}
	}
	r := &ScaleResult{Seed: seed}
	for _, n := range sizes {
		r.Rows = append(r.Rows, scaleRow(seed, n))
	}
	return r
}

// Render prints the trajectory.
func (r *ScaleResult) Render() string {
	t := &metrics.Table{Header: []string{
		"tenants", "pool", "oversub", "done", "sim (s)", "wall (ms)",
		"events", "ticks", "adm", "preempt", "us/decision", "wait (s)", "util %", "digest"}}
	for _, row := range r.Rows {
		t.AddRow(row.Tenants, row.Pool, fmt.Sprintf("%.1fx", row.Oversub),
			fmt.Sprintf("%d/%d", row.Completed, row.Tenants),
			fmt.Sprintf("%.0f", row.SimS), fmt.Sprintf("%.0f", row.WallMS),
			row.Events, row.Ticks, row.Admissions, row.Preemptions,
			fmt.Sprintf("%.2f", row.MeanDecisionUS), fmt.Sprintf("%.1f", row.MeanWaitS),
			fmt.Sprintf("%.0f", row.Utilization*100), row.Digest)
	}
	s := fmt.Sprintf("seed %d; one-facility federation fleet; pool = clamp(tenants/4, 4, 256); 80%% bursty / 20%% hog tenants\n", r.Seed)
	return s + t.String()
}
