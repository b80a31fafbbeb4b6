package swap

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"emucheck/internal/sim"
	"emucheck/internal/storage"
)

var update = flag.Bool("update", false, "rewrite the swap-matrix golden file")

// matrixCase is one swap configuration the golden pins: the transfer
// mode plus the storage tier (nil: untiered) and delta cache behind it.
type matrixCase struct {
	name string
	opts Options
	// tier builds the chain tier (nil: the untiered pipeline).
	tier func() *storage.Tier
	// cacheMB sizes the delta cache (tiered cases only).
	cacheMB int64
	// standalone leaves the manager without a cluster chain store, so
	// its private store mirrors onto the tier by itself.
	standalone bool
}

func matrixCases() []matrixCase {
	eager := DefaultOptions()
	eager.Lazy = false
	disk := func(capacity int64) func() *storage.Tier {
		return func() *storage.Tier { return storage.NewTier(storage.DiskKind, capacity) }
	}
	remote := func() *storage.Tier { return storage.NewTier(storage.RemoteKind, 0) }
	return []matrixCase{
		{name: "full-lazy", opts: DefaultOptions()},
		{name: "full-eager", opts: eager},
		{name: "incremental", opts: IncrementalOptions()},
		{name: "clone-aware", opts: BranchOptions()},
		{name: "disk", opts: IncrementalOptions(), tier: disk(0)},
		{name: "disk-8mb", opts: IncrementalOptions(), tier: disk(8 << 20)},
		{name: "disk-standalone", opts: IncrementalOptions(), tier: disk(0), standalone: true},
		{name: "remote", opts: IncrementalOptions(), tier: remote},
		{name: "remote-cache", opts: IncrementalOptions(), tier: remote, cacheMB: 64},
		{name: "remote-cache-clone-aware", opts: BranchOptions(), tier: remote, cacheMB: 64},
	}
}

// tierLedger renders the tier's resident footprint and spill ledger.
func tierLedger(tier *storage.Tier) string {
	if tier == nil {
		return "none"
	}
	return fmt.Sprintf("stored=%d segments=%d spill_segments=%d spill_bytes=%d",
		tier.StoredBytes(), tier.SegmentCount(), tier.SpillSegments, tier.SpillBytes)
}

func fmtOut(r *OutReport) string {
	ck := "nil"
	if c := r.Checkpoint; c != nil {
		ck = fmt.Sprintf("{epoch=%d images=%d total=%d completed=%d}", c.Epoch, len(c.Images), c.TotalBytes, c.CompletedAt)
	}
	return fmt.Sprintf("started=%d finished=%d precopy=%d residual=%d memory=%d merged=%d incremental=%t depth=%d checkpoint=%s",
		r.Started, r.Finished, r.PreCopyBytes, r.ResidualBytes, r.MemoryBytes, r.MergedBytes, r.Incremental, r.ChainDepth, ck)
}

func fmtIn(r *InReport) string {
	return fmt.Sprintf("started=%d finished=%d lazy=%t golden=%t delta=%d memory=%d background=%d incremental=%t depth=%d cached=%d remote=%d",
		r.Started, r.Finished, r.Lazy, r.GoldenFetched, r.DeltaBytes, r.MemoryBytes, r.BackgroundDone, r.Incremental, r.ChainDepth, r.CachedBytes, r.RemoteBytes)
}

// runMatrixCase drives one configuration through two swap cycles, a
// committed epoch, a crash + Recover, and a third cycle, and renders
// every observable the storage tier can move.
func runMatrixCase(c matrixCase) string {
	var tier *storage.Tier
	if c.tier != nil {
		tier = c.tier()
	}
	var r *rig
	if c.standalone {
		r = newTierRig(31, nil, 0)
		r.m.Chains = nil
		r.m.Tier = tier
	} else {
		r = newTierRig(31, tier, c.cacheMB)
	}
	var b strings.Builder
	logf := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	cycle := func(label string) {
		var outs []*OutReport
		var outErr error
		if err := r.m.SwapOut(c.opts, func(x []*OutReport, err error) { outs, outErr = x, err }); err != nil {
			logf("%s out: error %v", label, err)
			return
		}
		r.s.RunFor(15 * sim.Minute)
		logf("%s out: err=%v", label, outErr)
		for _, o := range outs {
			logf("  %s", fmtOut(o))
		}
		var ins []*InReport
		var inErr error
		if err := r.m.SwapIn(c.opts, func(x []*InReport, err error) { ins, inErr = x, err }); err != nil {
			logf("%s in: error %v", label, err)
			return
		}
		r.s.RunFor(15 * sim.Minute)
		logf("%s in: err=%v", label, inErr)
		for _, in := range ins {
			logf("  %s", fmtIn(in))
		}
	}

	// The first swap-in and the recovery land on hardware without the
	// golden image, so both pay the Frisbee fetch.
	r.m.Nodes[0].GoldenCached = false
	r.s.RunFor(sim.Second)
	r.dirty(16 << 20)
	cycle("cycle1")
	r.dirty(16 << 20)
	cycle("cycle2")

	r.dirty(8 << 20)
	moved := int64(-1)
	r.m.CommitEpoch(func(n int64) { moved = n })
	r.s.RunFor(5 * sim.Minute)
	logf("commit: moved=%d last_commit=%d", moved, r.m.LastCommitAt())

	r.hv.Crash()
	r.m.Nodes[0].GoldenCached = false
	var recs []*InReport
	var recErr error
	if err := r.m.Recover(c.opts, func(x []*InReport, err error) { recs, recErr = x, err }); err != nil {
		logf("recover: error %v", err)
	} else {
		r.s.RunFor(15 * sim.Minute)
		logf("recover: err=%v crashed=%t", recErr, r.hv.Crashed())
		for _, in := range recs {
			logf("  %s", fmtIn(in))
		}
	}

	r.dirty(4 << 20)
	cycle("cycle3")

	names := r.m.Stats.Names()
	sort.Strings(names)
	for _, name := range names {
		logf("stat %s=%d", name, r.m.Stats.Get(name))
	}
	sv := r.m.Server
	logf("server: received=%d served=%d queued=%d max_backlog=%d batches=%d batch_bytes=%d",
		sv.Received, sv.Served, sv.Queued, sv.MaxBacklog, sv.Batches, sv.BatchBytes)
	logf("tier: %s", tierLedger(tier))
	if r.m.Cache != nil {
		st := r.m.Cache.Stats()
		logf("cache: hits=%d misses=%d hit_bytes=%d miss_bytes=%d evictions=%d expired=%d",
			st.Hits, st.Misses, st.HitBytes, st.MissBytes, st.Evictions, st.Expired)
	}
	logf("sim: now=%d fired=%d", r.s.Now(), r.s.Fired())
	return b.String()
}

// TestSwapMatrixGolden pins the swap pipeline across every transfer
// mode and storage tier: reports, stats, server ledgers, tier and cache
// ledgers, and the final simulated time must stay byte-identical.
// Refresh with `go test ./internal/swap -run TestSwapMatrixGolden -update`
// only for an intended behaviour change.
func TestSwapMatrixGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range matrixCases() {
		fmt.Fprintf(&b, "== %s\n%s", c.name, runMatrixCase(c))
	}
	got := b.String()
	path := filepath.Join("testdata", "swap_matrix.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("swap matrix drifted at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("swap matrix drifted: %d lines, want %d", len(gl), len(wl))
	}
}
