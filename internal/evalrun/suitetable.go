package evalrun

import "emucheck/internal/suite"

// SuiteResult is the scenario-corpus table's JSON shape — the suite
// runner's corpus report (schema emusuite/v1), re-exported so the
// benchrunner schema registry can pin it like every other table.
type SuiteResult = suite.Report

// SuiteTable runs the generated scenario corpus under the suite
// runner's shared invariants and reports per-scenario verdicts plus
// axis coverage: its value as a benchmark artifact is the determinism
// ledger itself (every digest reproducible from the seed) and the
// coverage counts.
func SuiteTable(seed int64, count int) *SuiteResult {
	return suite.RunMatrix(seed, count)
}
