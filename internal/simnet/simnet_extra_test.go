package simnet

import (
	"testing"

	"emucheck/internal/sim"
)

func TestFreezeDuringThawReplay(t *testing.T) {
	// Refreezing while a replay is in flight: already-scheduled replay
	// deliveries land (they are wire arrivals in progress); packets
	// still arriving afterwards are logged again. Nothing is lost.
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 0)
	n := 0
	b.OnReceive(func(*Packet) { n++ })
	b.Freeze()
	for i := 0; i < 4; i++ {
		a.Send(&Packet{Dst: "b", Size: 500})
	}
	s.Run()
	b.Thaw()
	// Refreeze immediately: replay events are queued with 1 µs spacing.
	b.Freeze()
	s.Run()
	b.Thaw()
	s.Run()
	if n != 4 {
		t.Fatalf("delivered %d/4 across freeze-thaw-freeze", n)
	}
}

func TestExplicitFlowPreserved(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 100*Mbps, 0)
	var flow string
	b.OnReceive(func(p *Packet) { flow = p.Flow })
	a.Send(&Packet{Dst: "b", Size: 100, Flow: "custom-flow"})
	s.Run()
	if flow != "custom-flow" {
		t.Fatalf("flow = %q", flow)
	}
}

func TestSwitchMultiplePorts(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, sim.Microsecond)
	nics := make(map[Addr]*NIC)
	hits := make(map[Addr]int)
	for _, n := range []Addr{"a", "b", "c", "d"} {
		n := n
		nic := NewNIC(s, n, 100*Mbps)
		nic.Attach(sw.Ingress())
		nic.OnReceive(func(*Packet) { hits[n]++ })
		sw.Connect(n, nic)
		nics[n] = nic
	}
	// Full mesh of one packet each.
	for _, src := range []Addr{"a", "b", "c", "d"} {
		for _, dst := range []Addr{"a", "b", "c", "d"} {
			if src != dst {
				nics[src].Send(&Packet{Dst: dst, Size: 100})
			}
		}
	}
	s.Run()
	for n, h := range hits {
		if h != 3 {
			t.Fatalf("%s received %d", n, h)
		}
	}
	if sw.Forwarded != 12 {
		t.Fatalf("forwarded = %d", sw.Forwarded)
	}
}

// TestFIFONeverDrainedStaysBounded: a component whose FIFO never
// empties (steady traffic) keeps popping in push order, clears popped
// slots, and slides live entries down instead of growing without bound.
func TestFIFONeverDrainedStaysBounded(t *testing.T) {
	var q fifo[hop]
	next, want := uint64(0), uint64(0)
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			q.push(hop{pkt: &Packet{ID: next}})
			next++
		}
		for i := 0; i < 2; i++ {
			if h := q.pop(); h.pkt.ID != want {
				t.Fatalf("popped packet %d, want %d", h.pkt.ID, want)
			}
			want++
		}
		if q.len() != round+1 {
			t.Fatalf("len %d, want %d", q.len(), round+1)
		}
	}
	if cap(q.buf) > 4*q.len() {
		t.Fatalf("buffer cap %d for %d live entries", cap(q.buf), q.len())
	}
	for _, h := range q.buf[:q.head] {
		if h.pkt != nil {
			t.Fatal("popped slot still references its packet")
		}
	}
}
