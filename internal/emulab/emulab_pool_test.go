package emulab

import (
	"testing"

	"emucheck/internal/core"
	"emucheck/internal/sim"
)

func TestStatelessSwapOutRetainsDefinition(t *testing.T) {
	s := sim.New(1)
	tb := NewTestbed(s, 10)
	e, err := tb.SwapIn(twoNodeSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	name := e.Spec.Name
	tb.SwapOutStateless(e)
	sp, ok := tb.Definition(name)
	if !ok {
		t.Fatalf("definition %q not retained", name)
	}
	if len(sp.Nodes) != 2 {
		t.Fatalf("retained spec mangled: %+v", sp)
	}
	// Re-admission by name boots a fresh instance of the definition.
	e2, err := tb.SwapInByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Spec.Name != name {
		t.Fatalf("re-admitted as %q", e2.Spec.Name)
	}
	if _, still := tb.Definition(name); still {
		t.Fatal("definition should clear while swapped in")
	}
	if _, err := tb.SwapInByName("ghost"); err == nil {
		t.Fatal("unknown definition admitted")
	}
}

func TestStatelessSwapOutHaltsGuests(t *testing.T) {
	s := sim.New(1)
	tb := NewTestbed(s, 10)
	e, err := tb.SwapIn(twoNodeSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	// An infinite guest loop; after the stateless swap-out its firewall
	// engages for good, so the discarded instance stops scheduling work.
	ticks := 0
	k := e.Node("a").K
	var step func()
	step = func() { k.Usleep(10*sim.Millisecond, func() { ticks++; step() }) }
	step()
	s.RunFor(sim.Second)
	before := ticks
	if before == 0 {
		t.Fatal("loop never ran")
	}
	tb.SwapOutStateless(e)
	s.RunFor(10 * sim.Second)
	if ticks > before+2 {
		t.Fatalf("discarded instance kept running: %d -> %d ticks", before, ticks)
	}
}

func TestReleaseAcquireHardware(t *testing.T) {
	s := sim.New(1)
	tb := NewTestbed(s, 4)
	e, err := tb.SwapIn(twoNodeSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	if tb.InUse() != 3 { // two nodes plus the shaped link's delay node
		t.Fatalf("in use = %d", tb.InUse())
	}
	tb.ReleaseHardware(e)
	tb.ReleaseHardware(e) // idempotent
	if tb.FreeNodes != 4 || !e.Released() {
		t.Fatalf("free = %d released = %v", tb.FreeNodes, e.Released())
	}
	// Another experiment can take the freed nodes...
	e2, err := tb.SwapIn(Spec{Name: "x2", Nodes: []NodeSpec{
		{Name: "m0", Swappable: true}, {Name: "m1", Swappable: true},
		{Name: "m2", Swappable: true}}})
	if err != nil {
		t.Fatal(err)
	}
	// ...after which the parked one cannot re-acquire.
	if err := tb.AcquireHardware(e); err == nil {
		t.Fatal("acquired beyond the pool")
	}
	tb.ReleaseHardware(e2)
	if err := tb.AcquireHardware(e); err != nil {
		t.Fatal(err)
	}
	if err := tb.AcquireHardware(e); err != nil {
		t.Fatal("second acquire should be a no-op")
	}
	if tb.FreeNodes != 1 {
		t.Fatalf("free = %d", tb.FreeNodes)
	}
}

func TestSpecDemandHelpers(t *testing.T) {
	sp := Spec{
		Name: "d",
		Nodes: []NodeSpec{
			{Name: "a", Swappable: true}, {Name: "b", Swappable: true}, {Name: "c"},
		},
		Links: []LinkSpec{
			{A: "a", B: "b", Delay: 5 * sim.Millisecond}, // shaped: delay node
			{A: "b", B: "c"}, // raw fabric
		},
	}
	if n := sp.NodesNeeded(); n != 4 {
		t.Fatalf("NodesNeeded = %d", n)
	}
	if sp.Swappable() {
		t.Fatal("spec with a non-swappable node reported swappable")
	}
	sp.Nodes[2].Swappable = true
	if !sp.Swappable() {
		t.Fatal("all-swappable spec reported unswappable")
	}
	if (Spec{}).Swappable() {
		t.Fatal("empty spec reported swappable")
	}
}

func TestSharedBusScopesCheckpoints(t *testing.T) {
	// Two experiments on one testbed checkpoint independently: each
	// coordinator's notifications are scoped, so epochs never cross.
	s := sim.New(9)
	tb := NewTestbed(s, 8)
	mk := func(name string) *Experiment {
		e, err := tb.SwapIn(Spec{Name: name, Nodes: []NodeSpec{
			{Name: name + "0", Swappable: true}, {Name: name + "1", Swappable: true}}})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ea, eb := mk("expA"), mk("expB")
	s.RunFor(sim.Second)
	doneA, doneB := 0, 0
	if err := ea.Coord.Checkpoint(core.Options{Incremental: true}, func(*core.Result, error) { doneA++ }); err != nil {
		t.Fatal(err)
	}
	if err := eb.Coord.Checkpoint(core.Options{Incremental: true}, func(*core.Result, error) { doneB++ }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Minute)
	if doneA != 1 || doneB != 1 {
		t.Fatalf("checkpoints: A=%d B=%d", doneA, doneB)
	}
	// Each experiment saved exactly its own two nodes.
	if n := len(ea.Coord.History[0].Images); n != 2 {
		t.Fatalf("A images = %d", n)
	}
	if n := len(eb.Coord.History[0].Images); n != 2 {
		t.Fatalf("B images = %d", n)
	}
}

// A spec whose link names an undefined node is rejected before the
// testbed charges the pool or starts NTP for any of its nodes.
func TestSwapInRejectsUnknownLinkEndpointWithoutLeak(t *testing.T) {
	tb := NewTestbed(sim.New(1), 10)
	spec := Spec{
		Name:  "leaky",
		Nodes: []NodeSpec{{Name: "a"}},
		Links: []LinkSpec{{A: "a", B: "ghost"}},
	}
	if _, err := tb.SwapIn(spec); err == nil {
		t.Fatal("link to an unknown node admitted")
	}
	if tb.FreeNodes != 10 {
		t.Fatalf("FreeNodes = %d after a rejected swap-in, want 10", tb.FreeNodes)
	}
	if tb.NTP.Started("a") {
		t.Fatal("NTP started for a node of a rejected swap-in")
	}
	spec.Links = nil
	spec.LANs = []LANSpec{{Name: "l", Members: []string{"a", "ghost"}}}
	if _, err := tb.SwapIn(spec); err == nil || tb.FreeNodes != 10 {
		t.Fatalf("LAN with an unknown member: err %v, FreeNodes %d", err, tb.FreeNodes)
	}
}
