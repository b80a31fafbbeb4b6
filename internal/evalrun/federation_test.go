package evalrun

import (
	"encoding/json"
	"testing"
)

// TestFederationGoldenShape pins the benchmark's structure on a small
// fleet: one serial row per facility count, one full-width parallel row
// per sharded count, every parallel digest byte-identical to its serial
// reference, and a cold/warm migration pair.
func TestFederationGoldenShape(t *testing.T) {
	r := Federation(1, []int{80}, []int{1, 2})
	if len(r.Rows) != 3 { // serial@1, serial@2, parallel@2
		t.Fatalf("got %d rows, want 3: %+v", len(r.Rows), r.Rows)
	}
	for _, row := range r.Rows {
		if !row.Identical {
			t.Fatalf("row %+v: parallel digest diverged from serial reference", row)
		}
		if row.Digest == "" || row.Events == 0 || row.SimS <= 0 {
			t.Fatalf("row %+v: missing simulation substance", row)
		}
	}
	par := r.Rows[2]
	if par.Workers != 2 || par.Facilities != 2 {
		t.Fatalf("last row is not the full-width parallel run: %+v", par)
	}
	if par.Windows <= 0 {
		t.Fatalf("parallel run reports no conservative windows: %+v", par)
	}
	if len(r.Warm) != 2 || r.Warm[0].WarmUp || !r.Warm[1].WarmUp {
		t.Fatalf("warm comparison is not a cold/warm pair: %+v", r.Warm)
	}
	// Warm-up's whole point: chain bytes move to the WAN ahead of the
	// restore instead of hitting the destination's shared pool.
	cold, warm := r.Warm[0], r.Warm[1]
	if cold.Migrations > 0 && warm.WarmedMB <= 0 {
		t.Fatalf("warm-up run warmed no bytes despite migrations: %+v", warm)
	}
}

// TestFederationDeterministic: the whole result is a pure function of
// (config, seed).
func TestFederationDeterministic(t *testing.T) {
	enc := func() string {
		b, err := json.Marshal(Federation(5, []int{80}, []int{1, 2}))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := enc(), enc(); a != b {
		t.Fatalf("same-seed federation results diverged:\n%s\n%s", a, b)
	}
}
