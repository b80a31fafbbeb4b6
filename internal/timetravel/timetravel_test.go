package timetravel

import (
	"sort"
	"testing"
	"testing/quick"

	"emucheck/internal/core"
	"emucheck/internal/sim"
)

func res(bytes int64) *core.Result {
	return &core.Result{TotalBytes: bytes}
}

func TestLinearRecording(t *testing.T) {
	tr := NewTree(1 << 30)
	n1, err := tr.Record(res(100), 5*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := tr.Record(res(100), 10*sim.Second)
	if n2.Parent != n1.ID || tr.Head() != n2.ID {
		t.Fatal("chain broken")
	}
	if tr.Used() != 200 || tr.Len() != 3 {
		t.Fatalf("used=%d len=%d", tr.Used(), tr.Len())
	}
	if tr.Depth(n2.ID) != 2 {
		t.Fatalf("depth = %d", tr.Depth(n2.ID))
	}
}

func TestRollbackCreatesBranch(t *testing.T) {
	tr := NewTree(1 << 30)
	n1, _ := tr.Record(res(10), 5*sim.Second)
	tr.Record(res(10), 10*sim.Second)
	plan, err := tr.Rollback(n1.ID, Perturbation{Kind: SeedChange, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Target != 5*sim.Second || plan.From.ID != n1.ID {
		t.Fatalf("plan: %+v", plan)
	}
	tr.SetBranchPerturbation(plan.Perturb)
	n3, _ := tr.Record(res(10), 7*sim.Second)
	if n3.Parent != n1.ID {
		t.Fatal("branch not under rollback point")
	}
	if n3.Branch.Kind != SeedChange || n3.Branch.Seed != 99 {
		t.Fatalf("lineage lost: %+v", n3.Branch)
	}
	// n1 now has two children -> a tree, not a chain.
	node, _ := tr.Get(n1.ID)
	if len(node.Children) != 2 {
		t.Fatalf("children = %d", len(node.Children))
	}
	leaves := tr.Leaves()
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	if len(leaves) != 2 {
		t.Fatalf("leaves = %v", leaves)
	}
}

func TestRollbackUnknownNode(t *testing.T) {
	tr := NewTree(0)
	if _, err := tr.Rollback(42, Perturbation{}); err == nil {
		t.Fatal("rollback to ghost succeeded")
	}
}

func TestCapacityEnforced(t *testing.T) {
	tr := NewTree(250)
	tr.Record(res(100), sim.Second)
	tr.Record(res(100), 2*sim.Second)
	if _, err := tr.Record(res(100), 3*sim.Second); err == nil {
		t.Fatal("overfilled snapshot disk")
	}
	if tr.Used() != 200 {
		t.Fatal("failed record changed usage")
	}
}

func TestPrune(t *testing.T) {
	tr := NewTree(1 << 20)
	n1, _ := tr.Record(res(100), sim.Second)
	n2, _ := tr.Record(res(100), 2*sim.Second)
	if err := tr.Prune(n1.ID); err == nil {
		t.Fatal("pruned internal node")
	}
	if err := tr.Prune(Root); err == nil {
		t.Fatal("pruned root")
	}
	if err := tr.Prune(n2.ID); err != nil {
		t.Fatal(err)
	}
	if tr.Used() != 100 || tr.Head() != n1.ID {
		t.Fatalf("used=%d head=%d", tr.Used(), tr.Head())
	}
	if err := tr.Prune(n2.ID); err == nil {
		t.Fatal("double prune")
	}
}

func TestPathToRoot(t *testing.T) {
	tr := NewTree(0)
	tr.Record(res(1), sim.Second)
	n2, _ := tr.Record(res(1), 2*sim.Second)
	path, err := tr.PathToRoot(n2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0].ID != n2.ID || path[2].ID != Root {
		t.Fatalf("path: %v", path)
	}
	if _, err := tr.PathToRoot(99); err == nil {
		t.Fatal("ghost path")
	}
}

func TestThousandsOfNodes(t *testing.T) {
	// §6: the snapshot disk stores trees with thousands of nodes. With
	// ~35 MB incremental snapshots, a 146 GB disk holds ~4000.
	tr := NewTree(146 << 30)
	for i := 0; i < 4000; i++ {
		if _, err := tr.Record(res(35<<20), sim.Time(i)*sim.Second); err != nil {
			t.Fatalf("failed at node %d: %v", i, err)
		}
	}
	if tr.Len() != 4001 {
		t.Fatalf("len = %d", tr.Len())
	}
}

// Property: used bytes always equal the sum over live non-root nodes,
// across any record/rollback/prune sequence.
func TestPropertyAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := NewTree(1 << 40)
		for _, op := range ops {
			switch op % 3 {
			case 0, 1:
				tr.Record(res(int64(op)+1), sim.Time(op)*sim.Second)
			case 2:
				leaves := tr.Leaves()
				if len(leaves) > 0 {
					sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
					tr.Prune(leaves[0])
				}
			}
		}
		var sum int64
		for id := NodeID(0); id < NodeID(len(ops)+2); id++ {
			if n, ok := tr.Get(id); ok && id != Root {
				sum += n.Bytes
			}
		}
		return sum == tr.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLeavesOrderIsDeterministic: the same tree built twice reports its
// leaves in the same, ascending order.
func TestLeavesOrderIsDeterministic(t *testing.T) {
	build := func() []NodeID {
		tr := NewTree(1 << 30)
		root, _ := tr.Record(res(10), sim.Second)
		for i := 0; i < 12; i++ {
			plan, err := tr.Rollback(root.ID, Perturbation{Kind: SeedChange, Seed: int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			tr.SetBranchPerturbation(plan.Perturb)
			tr.Record(res(10), sim.Time(2+i)*sim.Second)
		}
		return tr.Leaves()
	}
	a, b := build(), build()
	if len(a) != 12 || !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatalf("leaves %v: want 12 in ascending order", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same tree, different leaf order: %v vs %v", a, b)
		}
	}
}
