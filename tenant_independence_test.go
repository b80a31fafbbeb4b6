package emucheck

import (
	"fmt"
	"testing"

	"emucheck/internal/emulab"
	"emucheck/internal/guest"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// pingTenant is a two-node experiment across a shaped link: node a
// ticks every 100 ms and ping-pongs with b, pausing 50 ms between round
// trips. When obs is non-nil it records a's guest time at every tick
// and every pong, tick times as-is and pong times negated.
func pingTenant(name string, obs *[]sim.Time) Scenario {
	a, b := name+".a", name+".b"
	return Scenario{
		Spec: emulab.Spec{
			Name:  name,
			Nodes: []emulab.NodeSpec{{Name: a, Swappable: true}, {Name: b, Swappable: true}},
			Links: []emulab.LinkSpec{{A: a, B: b, Bandwidth: 100 * simnet.Mbps, Delay: 5 * sim.Millisecond}},
		},
		Setup: func(s *Session) {
			ka, kb := s.Kernel(a), s.Kernel(b)
			record := func(v sim.Time) {
				if obs != nil {
					*obs = append(*obs, v)
				}
			}
			var tick func()
			tick = func() {
				record(ka.Monotonic())
				s.C.Touch(name)
				ka.Usleep(100*sim.Millisecond, tick)
			}
			ka.Usleep(100*sim.Millisecond, tick)
			ping, pong := &guest.Message{Port: "ping"}, &guest.Message{Port: "pong"}
			addrA, addrB := s.Addr(a), s.Addr(b)
			kb.Handle("ping", func(simnet.Addr, *guest.Message) { kb.Send(addrA, 200, pong) })
			send := func() { ka.Send(addrB, 200, ping) }
			ka.Handle("pong", func(simnet.Addr, *guest.Message) {
				record(-ka.Monotonic())
				ka.Usleep(50*sim.Millisecond, send)
			})
			send()
		},
	}
}

// TestTenantIndependentOfNeighbours: a tenant's guest-observed timer and
// packet times are the same whether it runs alone or shares the testbed
// with neighbours admitted mid-run. Every component draws from its own
// keyed stream, so the neighbours' draws cannot shift the tenant's
// wake-up jitter, and the pool is large enough that nobody is preempted.
func TestTenantIndependentOfNeighbours(t *testing.T) {
	const neighbours = 5
	run := func(withNeighbours bool) []sim.Time {
		c := NewCluster(3*(1+neighbours), 11, IdleFirst)
		var obs []sim.Time
		if _, err := c.Submit(pingTenant("solo", &obs), 0); err != nil {
			t.Fatal(err)
		}
		if withNeighbours {
			c.S.At(30*sim.Second, "neighbours", func() {
				for i := 0; i < neighbours; i++ {
					if _, err := c.Submit(pingTenant(fmt.Sprintf("n%d", i), nil), 0); err != nil {
						t.Error(err)
					}
				}
			})
		}
		c.RunFor(60 * sim.Second)
		return obs
	}
	alone, crowded := run(false), run(true)
	if len(alone) < 500 {
		t.Fatalf("only %d observations alone", len(alone))
	}
	for i := range alone {
		if i >= len(crowded) || crowded[i] != alone[i] {
			got := "nothing"
			if i < len(crowded) {
				got = crowded[i].String()
			}
			t.Fatalf("observation %d: %v alone, %s with neighbours (negative: pong)", i, alone[i], got)
		}
	}
	if len(crowded) != len(alone) {
		t.Fatalf("%d observations alone, %d with neighbours", len(alone), len(crowded))
	}
}
