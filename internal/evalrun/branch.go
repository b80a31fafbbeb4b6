package evalrun

import (
	"fmt"

	"emucheck"
	"emucheck/internal/emulab"
	"emucheck/internal/metrics"
	"emucheck/internal/sim"
)

// BranchModeRow is one staging mode's outcome for the same fan-out.
type BranchModeRow struct {
	Mode string `json:"mode"`
	// MovedMB is the total control-LAN traffic of the whole exploration
	// (staging + the branches' own swap cycles), both directions.
	MovedMB float64 `json:"moved_mb"`
	// StoredMB is the server-side checkpoint-chain footprint: unique
	// refcounted bytes under sharing, the sum of private copies naive.
	StoredMB float64 `json:"stored_mb"`
	// MulticastSavedMB is the unicast surplus the one-pass staging
	// avoided (zero for the naive mode).
	MulticastSavedMB float64 `json:"multicast_saved_mb"`
	// AllRunningS is the simulated second the last branch entered
	// service — the time cost of materializing the frontier (0 = never
	// within the horizon).
	AllRunningS float64 `json:"all_running_s"`
}

// BranchResult is the branch fan-out benchmark: the same N-way fork of
// the same checkpointed parent, staged with shared-lineage multicast
// (refcounted chain store + clone-aware restore) versus naive
// per-branch full copies. Sharing must move strictly fewer control-LAN
// bytes and have the whole frontier exploring strictly sooner.
type BranchResult struct {
	FanOut   int     `json:"fan_out"`
	Seed     int64   `json:"seed"`
	PoolN    int     `json:"pool"`
	DirtyMB  int64   `json:"dirty_mb"`
	HorizonS float64 `json:"horizon_s"`

	Shared BranchModeRow `json:"shared"`
	Naive  BranchModeRow `json:"naive"`
}

// branchParentScenario builds the 2-node parent whose workload journals
// dirtyMB of state (the expensive computed past branches want to
// inherit) and then stays live with a tick loop.
func branchParentScenario(name string, dirtyMB int64) emucheck.Scenario {
	a, b := name+"a", name+"b"
	return emucheck.Scenario{
		Spec: emulab.Spec{
			Name:  name,
			Nodes: []emulab.NodeSpec{{Name: a, Swappable: true}, {Name: b, Swappable: true}},
			Links: []emulab.LinkSpec{{A: a, B: b}},
		},
		Setup: func(s *emucheck.Session) {
			self := s.Scenario.Spec.Name
			k := s.Kernel(a)
			var written int64
			var step func()
			step = func() {
				if written < dirtyMB<<20 {
					k.WriteDisk(1<<30+written, 2<<20, func() {
						written += 2 << 20
						s.C.Touch(self)
						k.Usleep(250*sim.Millisecond, step)
					})
					return
				}
				k.Usleep(sim.Second, func() {
					s.C.Touch(self)
					step()
				})
			}
			step()
		},
	}
}

// runBranchMode forks the same parent checkpoint fanout ways under one
// staging mode and measures bytes and time-to-frontier.
func runBranchMode(seed int64, fanout int, dirtyMB int64, horizon sim.Time, naive bool) BranchModeRow {
	pool := 2*fanout + 2
	c := emucheck.NewCluster(pool, seed, emucheck.FIFO)
	c.Incremental = true
	c.NaiveBranchCopy = naive

	sess, err := c.Submit(branchParentScenario("p", dirtyMB), 0)
	if err != nil {
		panic("branch: " + err.Error())
	}
	// Let the parent compute its past, then pin it with a checkpoint.
	c.RunFor(sim.Time(dirtyMB/2+10) * sim.Second)
	if err := sess.CheckpointAsync(emucheck.CheckpointOptions{Incremental: true}, nil); err != nil {
		panic("branch: " + err.Error())
	}
	c.RunFor(30 * sim.Second)

	specs := make([]emucheck.BranchSpec, fanout)
	for i := range specs {
		specs[i] = emucheck.BranchSpec{
			Perturb: emucheck.Perturbation{Kind: emucheck.SeedChange, Seed: int64(100 + i)},
		}
	}
	branches, err := c.Branch("p", sess.Tree.Head(), specs...)
	if err != nil {
		panic("branch: " + err.Error())
	}

	var allRunningAt sim.Time
	for c.Now() < horizon {
		c.RunFor(sim.Second)
		running := 0
		for _, b := range branches {
			if b.State() == "running" {
				running++
			}
		}
		if running == len(branches) {
			allRunningAt = c.Now()
			break
		}
	}

	var stored int64
	if naive {
		// Private chains: every branch holds its own full server copy.
		stored = c.Chains.StoredBytes()
		for _, b := range branches {
			if b.Exp != nil && b.Exp.Swap != nil {
				for _, lin := range b.Exp.Swap.Lineages() {
					stored += lin.ReplayBytes()
				}
			}
		}
	} else {
		stored = c.Chains.StoredBytes()
	}
	mode := "shared-lineage"
	if naive {
		mode = "naive-full-copy"
	}
	return BranchModeRow{
		Mode:             mode,
		MovedMB:          float64(c.TB.Server.Received+c.TB.Server.Served) / (1 << 20),
		StoredMB:         float64(stored) / (1 << 20),
		MulticastSavedMB: float64(c.TB.Server.MulticastSavedBytes) / (1 << 20),
		AllRunningS:      allRunningAt.Seconds(),
	}
}

// BranchTable runs the fan-out comparison (fanout 0 = 4).
func BranchTable(seed int64, fanout int) *BranchResult {
	if fanout <= 0 {
		fanout = 4
	}
	const dirtyMB = 48
	horizon := 30 * sim.Minute
	return &BranchResult{
		FanOut: fanout, Seed: seed, PoolN: 2*fanout + 2,
		DirtyMB: dirtyMB, HorizonS: horizon.Seconds(),
		Shared: runBranchMode(seed, fanout, dirtyMB, horizon, false),
		Naive:  runBranchMode(seed, fanout, dirtyMB, horizon, true),
	}
}

// Render prints the comparison.
func (r *BranchResult) Render() string {
	t := &metrics.Table{Header: []string{"mode", "moved MB", "stored MB", "mcast saved MB", "frontier live (s)"}}
	for _, row := range []BranchModeRow{r.Shared, r.Naive} {
		live := "never"
		if row.AllRunningS > 0 {
			live = fmt.Sprintf("%.0f", row.AllRunningS)
		}
		t.AddRow(row.Mode, fmt.Sprintf("%.0f", row.MovedMB), fmt.Sprintf("%.0f", row.StoredMB),
			fmt.Sprintf("%.0f", row.MulticastSavedMB), live)
	}
	s := fmt.Sprintf("%d-way branch fan-out of a %d MB-dirty 2-node parent (pool %d): shared-lineage multicast staging vs naive per-branch full copies\n",
		r.FanOut, r.DirtyMB, r.PoolN)
	return s + t.String()
}
