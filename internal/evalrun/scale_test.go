package evalrun

import (
	"testing"

	"emucheck/internal/federation"
)

// TestScaleSmallFleetCompletes sanity-checks the fleet at the smallest
// table size: every tenant finishes within the horizon, the scheduler
// made decisions, and the scoped bus carried traffic.
func TestScaleSmallFleetCompletes(t *testing.T) {
	row := Scale(1, []int{16}).Rows[0]
	if row.Completed != row.Tenants {
		t.Fatalf("only %d/%d tenants completed by the horizon (sim %.0f s)",
			row.Completed, row.Tenants, row.SimS)
	}
	if row.Decisions <= 0 || row.Admissions < row.Tenants {
		t.Fatalf("scheduler made %d decisions, %d admissions for %d tenants",
			row.Decisions, row.Admissions, row.Tenants)
	}
	if row.Published == 0 || row.Delivered != 2*row.Published {
		t.Fatalf("scoped fan-out wrong: %d published, %d delivered (want 2 per publish)",
			row.Published, row.Delivered)
	}
	if row.Digest == "" {
		t.Fatal("empty digest")
	}
}

// TestScaleMidFleetPreempts checks the 128-tenant size exercises the
// involuntary path: hogs must be preempted on an oversubscribed pool.
func TestScaleMidFleetPreempts(t *testing.T) {
	row := Scale(1, []int{128}).Rows[0]
	if row.Preemptions == 0 {
		t.Fatalf("no preemptions at %gx oversubscription: %+v", row.Oversub, row)
	}
	if row.Completed != row.Tenants {
		t.Fatalf("only %d/%d tenants completed by the horizon", row.Completed, row.Tenants)
	}
}

// TestScaleDeterministicAt1k is the at-scale determinism guard: the
// same seed must drive the 1000-tenant fleet — queue churn, victim
// heaps, scoped fan-out, chain restores, timer reuse and all — to a
// byte-identical simulation-domain digest twice. It runs under -race
// in CI.
func TestScaleDeterministicAt1k(t *testing.T) {
	a := Scale(7, []int{1000}).Rows[0]
	b := Scale(7, []int{1000}).Rows[0]
	if a.Digest != b.Digest {
		t.Fatalf("same-seed 1k-tenant runs diverged: %s vs %s", a.Digest, b.Digest)
	}
	if a.Events != b.Events || a.Ticks != b.Ticks || a.Preemptions != b.Preemptions {
		t.Fatalf("same-seed runs diverged before the digest: %+v vs %+v", a, b)
	}
	if a.Completed == 0 {
		t.Fatal("1k fleet made no progress")
	}
}

// TestScaleIsOneFacilityFederation pins the scale table to the
// federation fleet: each row is the one-facility federation run, digest
// for digest, and the 1k row matches the digest first recorded for the
// 1k one-facility federation run.
func TestScaleIsOneFacilityFederation(t *testing.T) {
	for _, n := range []int{16, 128} {
		row := Scale(1, []int{n}).Rows[0]
		want := federation.Run(federation.Config{Facilities: 1, Tenants: n, Seed: 1}).Digest
		if row.Digest != want {
			t.Fatalf("scale row at %d tenants has digest %s, one-facility federation %s", n, row.Digest, want)
		}
	}
	const want1k = "e39e44ba02450123"
	if got := Scale(1, []int{1000}).Rows[0].Digest; got != want1k {
		t.Fatalf("1k scale digest %s, want the committed %s", got, want1k)
	}
}
