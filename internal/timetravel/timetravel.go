// Package timetravel implements the experiment time-travel system
// (paper §6): frequent transparent checkpoints during a run form a
// navigation structure; backward navigation restores a checkpoint, and
// forward navigation replays from it. Because replay may mutate state or
// take non-deterministic turns, sessions form a *tree* — internal nodes
// are checkpoints, leaves are checkpoints or active executions — rather
// than the linear chain of deterministic replay.
//
// On this substrate, restore is realized by deterministic re-execution:
// the simulator is bit-deterministic, so "rolling back" to a checkpoint
// means re-running the experiment to the checkpoint's virtual time and
// then continuing — with the same random stream for deterministic
// replay, or with a perturbation for the paper's relaxed-determinism
// "knob" (skewed timing, packet reordering, seed changes). The tree
// tracks snapshot storage against the node-local snapshot disk, which
// the paper sizes to hold trees with thousands of nodes.
package timetravel

import (
	"fmt"
	"slices"

	"emucheck/internal/core"
	"emucheck/internal/sim"
)

// NodeID identifies one tree node.
type NodeID int

// Root is the implicit initial-state node's ID.
const Root NodeID = 0

// PerturbKind is the relaxed-determinism knob (§6): how a replay may
// diverge from the original run.
type PerturbKind int

// Perturbation kinds.
const (
	// Deterministic replays with the identical event stream.
	Deterministic PerturbKind = iota
	// SeedChange re-draws all scheduling/jitter randomness.
	SeedChange
	// TimeDilation skews timer firing by a factor.
	TimeDilation
	// PacketReorder perturbs network delivery order.
	PacketReorder
)

func (k PerturbKind) String() string {
	switch k {
	case Deterministic:
		return "deterministic"
	case SeedChange:
		return "seed-change"
	case TimeDilation:
		return "time-dilation"
	default:
		return "packet-reorder"
	}
}

// Perturbation configures one replay branch.
type Perturbation struct {
	Kind PerturbKind
	// Magnitude scales the perturbation (dilation factor, reorder
	// window); ignored for Deterministic.
	Magnitude float64
	// Seed replaces the run's random seed for SeedChange.
	Seed int64
}

// Node is one point in the execution history.
type Node struct {
	ID       NodeID
	Parent   NodeID
	Children []NodeID

	// Checkpoint is the distributed checkpoint captured here (nil for
	// the root, which is the experiment's initial state).
	Checkpoint *core.Result
	// VirtualTime is the experiment-visible capture time.
	VirtualTime sim.Time
	// Bytes is the snapshot footprint on the local snapshot disk.
	Bytes int64
	// Branch records the perturbation that created this lineage.
	Branch Perturbation
}

// Tree is the time-travel session tree.
type Tree struct {
	nodes map[NodeID]*Node
	next  NodeID
	head  NodeID

	// Capacity bounds snapshot storage (the second local disk).
	Capacity int64
	used     int64
}

// NewTree creates a tree rooted at the experiment's initial state with
// the given snapshot-disk capacity in bytes.
func NewTree(capacity int64) *Tree {
	t := &Tree{nodes: make(map[NodeID]*Node), Capacity: capacity}
	t.nodes[Root] = &Node{ID: Root, Parent: -1}
	t.next = 1
	return t
}

// Head reports the node the live execution currently descends from.
func (t *Tree) Head() NodeID { return t.head }

// Used reports snapshot storage in use.
func (t *Tree) Used() int64 { return t.used }

// Len reports the number of nodes including the root.
func (t *Tree) Len() int { return len(t.nodes) }

// Get returns a node by ID.
func (t *Tree) Get(id NodeID) (*Node, bool) {
	n, ok := t.nodes[id]
	return n, ok
}

// Record appends a checkpoint under the current head and advances the
// head to it. It fails if the snapshot disk is full.
func (t *Tree) Record(res *core.Result, virtualTime sim.Time) (*Node, error) {
	bytes := res.TotalBytes
	if t.Capacity > 0 && t.used+bytes > t.Capacity {
		return nil, fmt.Errorf("timetravel: snapshot disk full (%d + %d > %d)", t.used, bytes, t.Capacity)
	}
	parent := t.nodes[t.head]
	n := &Node{
		ID:          t.next,
		Parent:      parent.ID,
		Checkpoint:  res,
		VirtualTime: virtualTime,
		Bytes:       bytes,
		Branch:      parent.Branch,
	}
	t.next++
	t.nodes[n.ID] = n
	parent.Children = append(parent.Children, n.ID)
	t.head = n.ID
	t.used += bytes
	return n, nil
}

// ReplayPlan is what the execution engine needs to realize a rollback:
// re-run deterministically to the target virtual time, then continue
// under the perturbation.
type ReplayPlan struct {
	From    *Node
	Target  sim.Time // virtual time to re-execute to
	Perturb Perturbation
}

// Rollback moves the head to an earlier (or sibling) node and returns
// the plan for re-executing from it. A subsequent Record creates a new
// branch under that node — this is how replay trees grow.
func (t *Tree) Rollback(id NodeID, p Perturbation) (*ReplayPlan, error) {
	n, ok := t.nodes[id]
	if !ok {
		return nil, fmt.Errorf("timetravel: no node %d", id)
	}
	t.head = id
	// The new lineage carries the perturbation.
	return &ReplayPlan{From: n, Target: n.VirtualTime, Perturb: p}, nil
}

// SetBranchPerturbation tags the head so descendants record the lineage.
func (t *Tree) SetBranchPerturbation(p Perturbation) {
	t.nodes[t.head].Branch = p
}

// PathToRoot reports the checkpoint chain from a node up to the root,
// nearest first.
func (t *Tree) PathToRoot(id NodeID) ([]*Node, error) {
	n, ok := t.nodes[id]
	if !ok {
		return nil, fmt.Errorf("timetravel: no node %d", id)
	}
	var out []*Node
	for n.Parent >= 0 {
		out = append(out, n)
		n = t.nodes[n.Parent]
	}
	out = append(out, n)
	return out, nil
}

// Prune removes a leaf (reclaiming its snapshot space). Internal nodes
// cannot be pruned: their children depend on them.
func (t *Tree) Prune(id NodeID) error {
	n, ok := t.nodes[id]
	if !ok {
		return fmt.Errorf("timetravel: no node %d", id)
	}
	if id == Root {
		return fmt.Errorf("timetravel: cannot prune root")
	}
	if len(n.Children) > 0 {
		return fmt.Errorf("timetravel: node %d has %d children", id, len(n.Children))
	}
	if t.head == id {
		t.head = n.Parent
	}
	parent := t.nodes[n.Parent]
	for i, c := range parent.Children {
		if c == id {
			parent.Children = append(parent.Children[:i], parent.Children[i+1:]...)
			break
		}
	}
	t.used -= n.Bytes
	delete(t.nodes, id)
	return nil
}

// Leaves reports all leaf nodes (active or abandoned execution tips),
// in ascending ID order.
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	for id, n := range t.nodes {
		if len(n.Children) == 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Depth reports the distance of id from the root.
func (t *Tree) Depth(id NodeID) int {
	d := 0
	for n := t.nodes[id]; n != nil && n.Parent >= 0; n = t.nodes[n.Parent] {
		d++
	}
	return d
}
