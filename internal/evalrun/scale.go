package evalrun

import (
	"fmt"

	"emucheck/internal/federation"
	"emucheck/internal/metrics"
)

// ScaleRow is one fleet size's outcome: the federation's seeded
// synthetic tenant population on a single facility, driven through
// the scheduler/event hot path (admission, preemption, voluntary
// park/unpark cycles, chain restores, per-tenant activity ticks,
// scoped control-LAN traffic). Every field is simulated and
// bit-deterministic under the seed; the host cost per scheduler
// decision is measured by BenchmarkScale, not reported here.
type ScaleRow struct {
	Tenants int `json:"tenants"`
	Pool    int `json:"pool"`
	// Oversub is tenant demand over pool capacity (Need=1 per tenant).
	Oversub   float64 `json:"oversubscription"`
	Completed int     `json:"completed"`
	SimS      float64 `json:"sim_s"`
	// Events counts simulator events delivered; Ticks counts tenant
	// activity ticks (the workload's unit of useful progress).
	Events uint64 `json:"events"`
	Ticks  int64  `json:"ticks"`
	// Published/Delivered count scoped control-LAN bus traffic.
	Published   uint64 `json:"published"`
	Delivered   uint64 `json:"delivered"`
	Admissions  int    `json:"admissions"`
	Preemptions int    `json:"preemptions"`
	// Decisions = Admissions + Preemptions.
	Decisions   int     `json:"decisions"`
	MeanWaitS   float64 `json:"mean_queue_wait_s"`
	Utilization float64 `json:"utilization"`
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
// pool sized by federation's clamp(n/4, 4, 256) default — and reads
// the row off the facility's exported state.
func scaleRow(seed int64, n int) ScaleRow {
	fed := federation.New(federation.Config{Facilities: 1, Tenants: n, Seed: seed})
	fac := fed.Facilities[0]
	d := fac.Sched
	r := fed.Run()
	return ScaleRow{
		Tenants: n, Pool: d.Capacity,
		Oversub:     float64(n) / float64(d.Capacity),
		Completed:   r.Completed,
		SimS:        r.SimS,
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
}

// Scale runs the fleet at each size and reports the tenant count vs
// completion, scheduler activity and queueing trajectory.
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
		"tenants", "pool", "oversub", "done", "sim (s)",
		"events", "ticks", "adm", "preempt", "wait (s)", "util %", "digest"}}
	for _, row := range r.Rows {
		t.AddRow(row.Tenants, row.Pool, fmt.Sprintf("%.1fx", row.Oversub),
			fmt.Sprintf("%d/%d", row.Completed, row.Tenants),
			fmt.Sprintf("%.0f", row.SimS),
			row.Events, row.Ticks, row.Admissions, row.Preemptions,
			fmt.Sprintf("%.1f", row.MeanWaitS),
			fmt.Sprintf("%.0f", row.Utilization*100), row.Digest)
	}
	s := fmt.Sprintf("seed %d; one-facility federation fleet; pool = clamp(tenants/4, 4, 256); 80%% bursty / 20%% hog tenants\n", r.Seed)
	return s + t.String()
}
