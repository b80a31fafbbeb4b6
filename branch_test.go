package emucheck

import (
	"fmt"
	"testing"

	"emucheck/internal/emulab"
	"emucheck/internal/sim"
	"emucheck/internal/storage"
)

// churnScenario builds a 2-node all-swappable experiment whose workload
// dirties disk on the first node every second — branches forked from it
// accumulate private divergence the chain store must keep separate.
func churnScenario(name string) Scenario {
	a, b := name+"a", name+"b"
	return Scenario{
		Spec: emulab.Spec{
			Name:  name,
			Nodes: []emulab.NodeSpec{{Name: a, Swappable: true}, {Name: b, Swappable: true}},
			Links: []emulab.LinkSpec{{A: a, B: b}},
		},
		Setup: func(s *Session) {
			self := s.Scenario.Spec.Name
			k := s.Kernel(a) // logical name: resolves through the branch alias
			var off int64
			var step func()
			step = func() {
				k.WriteDisk(1<<30+off, 256<<10, func() {
					off += 256 << 10
					s.C.Touch(self)
					k.Usleep(sim.Second, step)
				})
			}
			step()
		},
	}
}

// branchFanOut submits a parent, checkpoints it, and forks fan branches.
func branchFanOut(t *testing.T, c *Cluster, fan int) (*Session, []*Session) {
	t.Helper()
	parent, err := c.Submit(churnScenario("p"), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	if err := parent.CheckpointAsync(CheckpointOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	ckpt := parent.Tree.Head()
	specs := make([]BranchSpec, fan)
	for i := range specs {
		specs[i] = BranchSpec{Perturb: Perturbation{Kind: SeedChange, Seed: int64(100 + i)}}
	}
	branches, err := c.Branch("p", ckpt, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return parent, branches
}

// TestClusterBranchFanOut: a 4-way fork gang-admits, tracks genealogy,
// and shares the checkpoint prefix by reference — one multicast stages
// the batch, and the store holds the prefix once.
func TestClusterBranchFanOut(t *testing.T) {
	c := NewCluster(12, 7, FIFO)
	c.Incremental = true
	parent, branches := branchFanOut(t, c, 4)
	c.RunFor(2 * sim.Minute)

	for _, b := range branches {
		if b.State() != "running" {
			t.Fatalf("branch %s is %s, want running", b.Scenario.Spec.Name, b.State())
		}
		if !b.IsBranch() || b.Parent() != "p" {
			t.Fatalf("branch %s genealogy broken: parent %q", b.Scenario.Spec.Name, b.Parent())
		}
		g := c.Genealogy(b.Scenario.Spec.Name)
		if len(g) != 2 || g[0] != "p" {
			t.Fatalf("genealogy %v, want [p <branch>]", g)
		}
	}
	if got := len(parent.Children()); got != 4 {
		t.Fatalf("parent has %d children, want 4", got)
	}
	if c.Sched.GangAdmissions != 1 {
		t.Fatalf("GangAdmissions = %d, want 1 (batch co-scheduled)", c.Sched.GangAdmissions)
	}
	if c.TB.Server.MulticastSavedBytes <= 0 {
		t.Fatal("fan-out staged without multicast savings")
	}

	// The shared prefix lives once in the store: the sum of per-branch
	// replay bytes dwarfs the unique stored bytes. (The idle node's
	// chain is legitimately empty; sharing shows on the churn node.)
	var replaySum, sharedSum int64
	for _, b := range branches {
		for _, lin := range b.Exp.Swap.Lineages() {
			replaySum += lin.ReplayBytes()
			sharedSum += lin.SharedBytes()
		}
	}
	if sharedSum <= 0 {
		t.Fatal("branch lineages share nothing with their siblings")
	}
	if stored := c.Chains.StoredBytes(); stored >= replaySum {
		t.Fatalf("store holds %d bytes for %d bytes of branch replays — prefix not shared", stored, replaySum)
	}

	// Branch workloads actually run (the alias resolves the parent's
	// logical node names).
	for _, b := range branches {
		if b.VirtualNow(b.Scenario.Spec.Name+".pa") <= 0 {
			t.Fatalf("branch %s guests never ran", b.Scenario.Spec.Name)
		}
	}
}

// TestBranchReleaseGCsPrivateDeltas: finishing a branch drops its chain
// references; its private divergence is reclaimed while the shared
// prefix survives for the siblings.
func TestBranchReleaseGCsPrivateDeltas(t *testing.T) {
	c := NewCluster(12, 11, FIFO)
	c.Incremental = true
	_, branches := branchFanOut(t, c, 2)
	c.RunFor(2 * sim.Minute)

	// Park the first branch so it commits a private epoch to its fork.
	victim := branches[0].Scenario.Spec.Name
	if err := c.Park(victim); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * sim.Minute)
	if branches[0].State() != "parked" {
		t.Fatalf("branch is %s, want parked", branches[0].State())
	}
	if err := c.Finish(victim); err != nil {
		t.Fatal(err)
	}
	if c.Chains.GCBytes <= 0 {
		t.Fatal("finishing a diverged branch reclaimed nothing")
	}

	// The survivor still replays: its shared prefix was refcounted, not
	// deleted with the sibling.
	var survivorReplay int64
	for _, lin := range branches[1].Exp.Swap.Lineages() {
		survivorReplay += lin.ReplayBytes()
		if lin.Released() {
			t.Fatal("survivor lineage released by sibling finish")
		}
	}
	if survivorReplay <= 0 {
		t.Fatal("survivor lineages emptied by sibling GC")
	}
}

// TestBranchNaiveCopyMovesMore: the per-branch full-copy baseline moves
// strictly more control-LAN bytes than the shared-lineage fan-out for
// the same 4-way fork.
func TestBranchNaiveCopyMovesMore(t *testing.T) {
	run := func(naive bool) uint64 {
		c := NewCluster(12, 7, FIFO)
		c.Incremental = true
		c.NaiveBranchCopy = naive
		branchFanOut(t, c, 4)
		c.RunFor(5 * sim.Minute)
		return c.TB.Server.Received + c.TB.Server.Served
	}
	shared := run(false)
	naive := run(true)
	if shared >= naive {
		t.Fatalf("shared fan-out moved %d bytes, naive %d — sharing saved nothing", shared, naive)
	}
}

// TestClusterBranchDeterministic: two clusters replaying the same
// fan-out at the same seed must agree byte for byte — event count,
// server traffic, chain-store content, and every tenant's observable
// history. This guards the concurrent branch machinery (gang
// admission, multicast rendezvous, refcounted store) against
// map-iteration or ordering nondeterminism.
func TestClusterBranchDeterministic(t *testing.T) {
	run := func() string {
		c := NewCluster(12, 7, FIFO)
		c.Incremental = true
		parent, branches := branchFanOut(t, c, 4)
		c.RunFor(3 * sim.Minute)
		d := fmt.Sprintf("now=%v fired=%d rx=%d tx=%d mcast=%d stored=%d entries=%d gc=%d dedup=%d",
			c.Now(), c.S.Fired(), c.TB.Server.Received, c.TB.Server.Served,
			c.TB.Server.MulticastSavedBytes, c.Chains.StoredBytes(), c.Chains.Entries(),
			c.Chains.GCBytes, c.Chains.DedupBytes)
		for _, s := range append([]*Session{parent}, branches...) {
			d += fmt.Sprintf(" [%s state=%s adm=%d pre=%d wait=%v children=%v]",
				s.Scenario.Spec.Name, s.State(), s.Admissions(), s.Preemptions(), s.QueueWait(), s.Children())
		}
		return d
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
}

// TestLiveLineagesInNodeOrder: a session lists its live chains in node
// order, both while a branch stages its forks and once it runs, so the
// same state built twice yields the same list.
func TestLiveLineagesInNodeOrder(t *testing.T) {
	run := func() string {
		c := NewCluster(12, 7, FIFO)
		c.Incremental = true
		_, branches := branchFanOut(t, c, 3)
		var d string
		// nodes gives a branch's node names in order and the chain each
		// node holds.
		check := func(phase string, nodes func(b *Session) ([]string, map[string]*storage.Lineage)) {
			for _, b := range branches {
				names, byName := nodes(b)
				got := b.LiveLineages()
				if len(got) != len(names) {
					t.Fatalf("%s %s: %d live lineages for %d nodes", phase, b.Scenario.Spec.Name, len(got), len(names))
				}
				for i, n := range names {
					if got[i] != byName[n] {
						t.Fatalf("%s %s: lineage %d is not node %s's", phase, b.Scenario.Spec.Name, i, n)
					}
					d += fmt.Sprintf(" %s/%d/%d", n, got[i].Epochs(), got[i].ReplayBytes())
				}
			}
		}
		check("staged", func(b *Session) ([]string, map[string]*storage.Lineage) {
			var names []string
			for _, ns := range b.Scenario.Spec.Nodes {
				names = append(names, ns.Name)
			}
			return names, b.branchLineages
		})
		c.RunFor(2 * sim.Minute)
		check("running", func(b *Session) ([]string, map[string]*storage.Lineage) {
			var names []string
			for _, n := range b.Exp.Swap.Nodes {
				names = append(names, n.Name)
			}
			return names, b.Exp.Swap.Lineages()
		})
		return d
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same state, different lineage order:\n%s\n%s", a, b)
	}
}

// TestBranchRejectionLeavesStateUntouched: a fan-out the pool can never
// hold is refused before anything mutates — no branch-point epoch on
// the parent's chains, no forked references pinning the store, no
// phantom bytes on the server's ledgers.
func TestBranchRejectionLeavesStateUntouched(t *testing.T) {
	c := NewCluster(6, 13, FIFO) // gang of 4 × 2 nodes needs 8 > 6
	c.Incremental = true
	parent, err := c.Submit(churnScenario("p"), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	if err := parent.CheckpointAsync(CheckpointOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)

	entries, stored := c.Chains.Entries(), c.Chains.StoredBytes()
	rx, tx := c.TB.Server.Received, c.TB.Server.Served

	specs := make([]BranchSpec, 4)
	if _, err := c.Branch("p", parent.Tree.Head(), specs...); err == nil {
		t.Fatal("oversized fan-out accepted")
	}
	if c.Chains.Entries() != entries || c.Chains.StoredBytes() != stored {
		t.Fatalf("rejected fan-out mutated the store: %d/%d entries, %d/%d bytes",
			entries, c.Chains.Entries(), stored, c.Chains.StoredBytes())
	}
	if c.Chains.GCBytes != 0 {
		t.Fatalf("rejected fan-out left %d GC'd bytes", c.Chains.GCBytes)
	}
	if c.TB.Server.Received != rx || c.TB.Server.Served != tx {
		t.Fatal("rejected fan-out charged server transfers")
	}
	if len(parent.Children()) != 0 {
		t.Fatal("rejected fan-out recorded children")
	}
}

// TestBranchValidation: branching rejects unknown parents, missing
// checkpoints, and duplicate branch names.
func TestBranchValidation(t *testing.T) {
	c := NewCluster(12, 3, FIFO)
	if _, err := c.Branch("ghost", 0); err == nil {
		t.Fatal("branched from an unknown parent")
	}
	parent, err := c.Submit(churnScenario("p"), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	if _, err := c.Branch("p", 99, BranchSpec{}); err == nil {
		t.Fatal("branched from a checkpoint that was never recorded")
	}
	if err := parent.CheckpointAsync(CheckpointOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	if _, err := c.Branch("p", parent.Tree.Head(), BranchSpec{Name: "p"}); err == nil {
		t.Fatal("branch name colliding with a live tenant accepted")
	}
}
