package sim_test

import (
	"testing"

	"emucheck/internal/emulab"
	"emucheck/internal/guest"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// TestGuestHotPathAllocationBudget extends TestDoAtPopAllocationFree's
// zero-alloc contract up the stack. On a warmed two-node tenant with a
// shaped link, a guest Usleep tick (firewall timer) allocates nothing,
// and neither does a ping-pong round trip (tx and rx softirqs, NIC,
// wires, delay-node pipes): its packets come from the NICs' free lists.
// Each one-way message fires exactly four events — tx softirq, wire
// arrival at the delay node, pipe emission, rx softirq — so a round
// trip fires eight.
func TestGuestHotPathAllocationBudget(t *testing.T) {
	s := sim.New(1)
	tb := emulab.NewTestbed(s, 3)
	e, err := tb.SwapIn(emulab.Spec{
		Name:  "budget",
		Nodes: []emulab.NodeSpec{{Name: "a"}, {Name: "b"}},
		Links: []emulab.LinkSpec{{A: "a", B: "b", Bandwidth: 100 * simnet.Mbps, Delay: 5 * sim.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := e.Node("a").K, e.Node("b").K
	ping := &guest.Message{Port: "ping"}
	pong := &guest.Message{Port: "pong"}
	pongs, ticks := 0, 0
	kb.Handle("ping", func(from simnet.Addr, _ *guest.Message) { kb.Send(from, 200, pong) })
	ka.Handle("pong", func(simnet.Addr, *guest.Message) { pongs++ })
	tick := func() { ticks++ }
	usleep := func() {
		ka.Usleep(10*sim.Millisecond, tick)
		s.RunFor(30 * sim.Millisecond)
	}
	roundTrip := func() {
		ka.Send("b", 200, ping)
		s.RunFor(30 * sim.Millisecond)
	}
	// Warm every free list, FIFO and queue slice on the path.
	for i := 0; i < 16; i++ {
		usleep()
		roundTrip()
	}
	if ticks != 16 || pongs != 16 {
		t.Fatalf("warm-up: %d ticks, %d pongs; want 16, 16", ticks, pongs)
	}
	if got := testing.AllocsPerRun(200, usleep); got != 0 {
		t.Errorf("one Usleep tick allocates %.1f, want 0", got)
	}
	if got := testing.AllocsPerRun(200, roundTrip); got != 0 {
		t.Errorf("one ping-pong round trip allocates %.1f, want 0", got)
	}
	if ticks != 16+201 || pongs != 16+201 {
		t.Fatalf("measured runs: %d ticks, %d pongs; want %d each", ticks, pongs, 16+201)
	}
	before := s.Fired()
	roundTrip()
	if got := s.Fired() - before; got != 8 {
		t.Errorf("one ping-pong round trip fires %d events, want 8", got)
	}
}
