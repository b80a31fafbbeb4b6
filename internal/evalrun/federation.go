package evalrun

import (
	"fmt"

	"emucheck/internal/federation"
	"emucheck/internal/metrics"
)

// FederationRow is one (fleet size, facilities, workers) cell of the
// federated-sharding benchmark: the same fleet run as a conservative
// parallel simulation. Every field — including the digest — is
// bit-deterministic under (config, seed), and Identical is the
// portable claim: the worker count cannot change the simulation, only
// the host time (which BenchmarkFederation measures).
type FederationRow struct {
	Tenants    int `json:"tenants"`
	Facilities int `json:"facilities"`
	Workers    int `json:"workers"`
	// Identical reports this row's digest byte-equal to the
	// same-sharding serial reference's.
	Identical  bool    `json:"digest_identical"`
	SimS       float64 `json:"sim_s"`
	Events     uint64  `json:"events"`
	Windows    int64   `json:"windows"`
	Migrations int     `json:"migrations"`
	WANMB      float64 `json:"wan_mb"`
	Digest     string  `json:"digest"`
}

// FederationWarmRow compares the migration data plane with and
// without destination cache warm-up on the same fleet: warm-up ships
// the chain over the WAN ahead of the restore, trading WAN megabytes
// for shared-pool restore traffic.
type FederationWarmRow struct {
	WarmUp     bool    `json:"warmup"`
	Migrations int     `json:"migrations"`
	WANMB      float64 `json:"wan_mb"`
	WarmedMB   float64 `json:"warmed_mb"`
	LocalMB    float64 `json:"local_mb"`
	RemoteMB   float64 `json:"remote_mb"`
}

// FederationResult is the federated-sharding benchmark: serial vs
// 2/4/8 facility-workers over the 1k/10k fleets, plus the warm-vs-cold
// migration comparison.
type FederationResult struct {
	Seed int64 `json:"seed"`
	// WarmTenants/WarmFacilities identify the warm-vs-cold fleet.
	WarmTenants    int                 `json:"warm_tenants"`
	WarmFacilities int                 `json:"warm_facilities"`
	Rows           []FederationRow     `json:"rows"`
	Warm           []FederationWarmRow `json:"warm_rows"`
}

// runFederation runs one cell.
func runFederation(seed int64, tenants, facilities, workers int) FederationRow {
	r := federation.Run(federation.Config{
		Facilities: facilities, Tenants: tenants, Seed: seed,
		Workers: workers, Migration: true, WarmUp: true,
	})
	return FederationRow{
		Tenants: tenants, Facilities: facilities, Workers: workers,
		SimS: r.SimS, Events: r.Events, Windows: r.Windows,
		Migrations: r.Migrations, WANMB: r.WANMB, Digest: r.Digest,
	}
}

// Federation runs the sharding benchmark: for each fleet size and
// facility count, the serial reference (workers=1) and, for sharded
// runs, the full-width parallel run (workers=facilities). Defaults:
// 1k and 10k fleets over 1/2/4/8 facilities.
func Federation(seed int64, sizes, facilities []int) *FederationResult {
	if len(sizes) == 0 {
		sizes = []int{1000, 10000}
	}
	if len(facilities) == 0 {
		facilities = []int{1, 2, 4, 8}
	}
	res := &FederationResult{Seed: seed}
	for _, n := range sizes {
		for _, f := range facilities {
			serial := runFederation(seed, n, f, 1)
			serial.Identical = true
			res.Rows = append(res.Rows, serial)
			if f == 1 {
				continue
			}
			par := runFederation(seed, n, f, f)
			par.Identical = par.Digest == serial.Digest
			res.Rows = append(res.Rows, par)
		}
	}

	// Warm-vs-cold migration comparison on the smallest fleet at the
	// widest sharding that still migrates (capped at 4 facilities).
	res.WarmTenants = sizes[0]
	res.WarmFacilities = facilities[len(facilities)-1]
	if res.WarmFacilities > 4 {
		res.WarmFacilities = 4
	}
	for _, warm := range []bool{false, true} {
		r := federation.Run(federation.Config{
			Facilities: res.WarmFacilities, Tenants: res.WarmTenants,
			Seed: seed, Workers: 1, Migration: true, WarmUp: warm,
		})
		res.Warm = append(res.Warm, FederationWarmRow{
			WarmUp: warm, Migrations: r.Migrations,
			WANMB: r.WANMB, WarmedMB: r.WarmedMB,
			LocalMB: r.LocalMB, RemoteMB: r.RemoteMB,
		})
	}
	return res
}

// Render prints the sharding curve and the warm-up comparison.
func (r *FederationResult) Render() string {
	t := &metrics.Table{Header: []string{
		"tenants", "facilities", "workers", "identical",
		"sim (s)", "events", "windows", "migrations", "wan MB", "digest"}}
	for _, row := range r.Rows {
		t.AddRow(row.Tenants, row.Facilities, row.Workers, row.Identical,
			fmt.Sprintf("%.0f", row.SimS), row.Events, row.Windows, row.Migrations,
			fmt.Sprintf("%.0f", row.WANMB), row.Digest)
	}
	s := fmt.Sprintf("seed %d; conservative windows, WAN-coupled facilities; identical = digest equals the same-sharding serial run\n", r.Seed)
	s += t.String()

	w := &metrics.Table{Header: []string{
		"warmup", "migrations", "wan MB", "warmed MB", "local MB", "remote MB"}}
	for _, row := range r.Warm {
		w.AddRow(row.WarmUp, row.Migrations, fmt.Sprintf("%.1f", row.WANMB),
			fmt.Sprintf("%.1f", row.WarmedMB), fmt.Sprintf("%.1f", row.LocalMB),
			fmt.Sprintf("%.1f", row.RemoteMB))
	}
	s += fmt.Sprintf("migration warm-up, %d tenants over %d facilities:\n", r.WarmTenants, r.WarmFacilities)
	return s + w.String()
}
