package dummynet

import (
	"testing"
	"testing/quick"

	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

func TestFreezeEmptyPipe(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "p", 100*simnet.Mbps, sim.Millisecond, nil)
	p.Freeze()
	st, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Queue) != 0 || len(st.DelayLine) != 0 {
		t.Fatal("phantom state in empty pipe")
	}
	if st.HeadTxLeft != -1 {
		t.Fatalf("head tx left = %v for idle pipe", st.HeadTxLeft)
	}
	p.Thaw()
	if p.Frozen() {
		t.Fatal("thaw failed")
	}
}

func TestRestoredStatsIncludeDrops(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "p", 1*simnet.Mbps, 0, nil)
	p.Slots = 1
	p.PLR = 0
	for i := 0; i < 5; i++ {
		p.Accept(&simnet.Packet{Size: 1500})
	}
	p.Freeze()
	st, _ := p.Serialize()
	p2 := NewPipe(s, "p", 1*simnet.Mbps, 0, nil)
	p2.Restore(st)
	if p2.Dropped != 4 {
		t.Fatalf("restored drops = %d", p2.Dropped)
	}
	if p2.Slots != 1 {
		t.Fatal("config not restored")
	}
}

func TestPartialLossRate(t *testing.T) {
	s := sim.New(42)
	k := &sink{s: s}
	p := NewPipe(s, "p", 0, 0, k)
	p.PLR = 0.3
	const n = 5000
	p.Slots = n // deep queue: only PLR may drop
	for i := 0; i < n; i++ {
		p.Accept(&simnet.Packet{Size: 100})
	}
	s.Run()
	frac := float64(p.PLRDrops) / n
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("drop fraction %.3f, want ~0.3", frac)
	}
	if len(k.pkts)+int(p.PLRDrops) != n {
		t.Fatal("conservation")
	}
}

func TestDelayNodeLossSymmetric(t *testing.T) {
	s := sim.New(1)
	d := NewDelayNode(s, "d", 100*simnet.Mbps, 0)
	d.SetLoss(1)
	if d.Forward.PLR != 1 || d.Reverse.PLR != 1 {
		t.Fatal("loss not symmetric")
	}
}

func TestStateByteEstimates(t *testing.T) {
	s := sim.New(1)
	d := NewDelayNode(s, "d", 0, 50*sim.Millisecond)
	k := &sink{s: s}
	d.AttachForward(k)
	for i := 0; i < 10; i++ {
		d.Forward.Accept(&simnet.Packet{Size: 1500})
	}
	d.Freeze()
	st, err := d.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes() < 10*1500 {
		t.Fatalf("state bytes %d below payload", st.Bytes())
	}
	if st.Name != "d" {
		t.Fatal("name lost")
	}
}

func TestThawedPipeAcceptsNewTraffic(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	p := NewPipe(s, "p", 100*simnet.Mbps, sim.Millisecond, k)
	p.Freeze()
	s.RunFor(10 * sim.Millisecond)
	p.Thaw()
	p.Accept(&simnet.Packet{Size: 1250})
	s.Run()
	if len(k.pkts) != 1 {
		t.Fatal("post-thaw traffic lost")
	}
}

// Property: serialize -> restore -> serialize produces an identical
// state image, for any traffic pattern and freeze point.
func TestPropertySerializeRoundTripStable(t *testing.T) {
	f := func(sizes []uint16, freezeUs uint16) bool {
		s := sim.New(21)
		p := NewPipe(s, "p", 50*simnet.Mbps, 4*sim.Millisecond, nil)
		for _, raw := range sizes {
			p.Accept(&simnet.Packet{Size: int(raw%1400) + 64})
		}
		s.RunFor(sim.Time(freezeUs) * sim.Microsecond)
		p.Freeze()
		st1, err := p.Serialize()
		if err != nil {
			return false
		}
		p2 := NewPipe(s, "p", 50*simnet.Mbps, 4*sim.Millisecond, nil)
		p2.Restore(st1)
		st2, err := p2.Serialize()
		if err != nil {
			return false
		}
		if len(st1.Queue) != len(st2.Queue) || len(st1.DelayLine) != len(st2.DelayLine) {
			return false
		}
		for i := range st1.DelayLine {
			if st1.DelayLine[i].RemainingDelay != st2.DelayLine[i].RemainingDelay {
				return false
			}
			if st1.DelayLine[i].Packet.Size != st2.DelayLine[i].Packet.Size {
				return false
			}
		}
		return st1.HeadTxLeft == st2.HeadTxLeft && st1.Bytes() == st2.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureRoundTripInPlace runs the delay-node checkpoint on one
// pipe: Freeze → Serialize → Restore → Thaw with packets in the router
// queue, in transmission and in the delay line. Every packet is emitted
// exactly once, in its original order, exactly as late as the frozen
// interval; the restore recycles the entries without leaving an armed
// timer behind, and no backing array keeps a pointer to a packet that
// has left the pipe.
func TestCaptureRoundTripInPlace(t *testing.T) {
	s := sim.New(1)
	k := &sink{s: s}
	base := s.Pending()
	p := NewPipe(s, "p", 10*simnet.Mbps, 30*sim.Millisecond, k)
	for i := 1; i <= 5; i++ {
		p.Accept(&simnet.Packet{ID: uint64(i), Size: 1250}) // 1 ms tx each
	}
	s.RunFor(2500 * sim.Microsecond) // two in the delay line, one transmitting, two queued
	p.Freeze()
	if s.Pending() != base {
		t.Fatalf("frozen pipe leaves %d events queued", s.Pending()-base)
	}
	st, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DelayLine) != 2 || len(st.Queue) != 3 {
		t.Fatalf("captured line %d, queue %d; want 2, 3", len(st.DelayLine), len(st.Queue))
	}
	const frozen = 100 * sim.Millisecond
	s.RunFor(frozen)
	p.Restore(st)
	if s.Pending() != base || p.InFlight() != 2 || p.QueueLen() != 3 {
		t.Fatalf("restore: %d events queued, line %d, queue %d", s.Pending()-base, p.InFlight(), p.QueueLen())
	}
	p.Thaw()
	s.Run()
	if len(k.pkts) != 5 {
		t.Fatalf("emitted %d packets, want 5", len(k.pkts))
	}
	for i, pkt := range k.pkts {
		// Unfrozen, packet i+1 would leave at 30 ms + (i+1) ms.
		want := 30*sim.Millisecond + sim.Time(i+1)*sim.Millisecond + frozen
		if pkt.ID != uint64(i+1) || k.times[i] != want {
			t.Fatalf("emission %d: packet %d at %v, want packet %d at %v", i, pkt.ID, k.times[i], i+1, want)
		}
	}
	if s.Pending() != base || p.Emitted != 5 {
		t.Fatalf("after drain: %d events queued, %d emitted", s.Pending()-base, p.Emitted)
	}
	for _, e := range p.ents[:cap(p.ents)] {
		if e != nil {
			t.Fatal("the entry list's backing array still holds an emitted entry")
		}
	}
	for _, e := range p.free {
		if e.pkt != nil || e.tm.Pending() {
			t.Fatal("free entry holds a packet or an armed timer")
		}
	}
}

// TestPooledPacketsNotReusedWhileHeld pins the packet pool's ownership
// rule: a sender's free list hands a packet out again only after its
// receiver released it. Packets parked in a frozen NIC's replay log or
// inside a frozen pipe are still held, and the copies a PipeState
// captures belong to no free list, so releasing one is a no-op.
func TestPooledPacketsNotReusedWhileHeld(t *testing.T) {
	s := sim.New(1)
	a := simnet.NewNIC(s, "a", simnet.Gbps)
	b := simnet.NewNIC(s, "b", simnet.Gbps)
	p := NewPipe(s, "p", 10*simnet.Mbps, 5*sim.Millisecond, b)
	a.Attach(simnet.NewWire(s, sim.Microsecond, p))

	held := map[*simnet.Packet]bool{}   // handed out, not yet released
	seen := map[*simnet.Packet]bool{}   // every packet the free list produced
	images := map[*simnet.Packet]bool{} // copies captured in a PipeState
	b.OnReceive(func(pkt *simnet.Packet) {
		if !held[pkt] {
			t.Fatalf("delivered packet %d was never handed out", pkt.ID)
		}
		delete(held, pkt)
		pkt.Release()
	})
	send := func(n int) {
		for i := 0; i < n; i++ {
			pkt := a.NewPacket()
			if held[pkt] || images[pkt] {
				t.Fatalf("free list handed out packet %d while it is still held", pkt.ID)
			}
			held[pkt], seen[pkt] = true, true
			pkt.Dst, pkt.Size = "b", 1250 // 1 ms through the pipe's bandwidth stage
			a.Send(pkt)
		}
	}

	send(8) // warm the free list
	s.Run()
	if len(held) != 0 {
		t.Fatalf("%d packets never delivered", len(held))
	}
	b.Freeze()
	send(8)
	s.Run()
	if b.ReplayLogLen() != 8 {
		t.Fatalf("replay log holds %d, want 8", b.ReplayLogLen())
	}
	send(8)
	s.RunFor(3500 * sim.Microsecond) // three in the delay line, five queued
	p.Freeze()
	st, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DelayLine) != 3 || len(st.Queue) != 5 {
		t.Fatalf("captured line %d, queue %d; want 3, 5", len(st.DelayLine), len(st.Queue))
	}
	for _, ps := range append(st.Queue, st.DelayLine...) {
		images[ps.Packet] = true
		ps.Packet.Release()
	}
	send(8) // into the frozen pipe's router queue
	s.RunFor(10 * sim.Millisecond)
	p.Thaw()
	s.Run()
	if b.ReplayLogLen() != 24 {
		t.Fatalf("replay log holds %d, want 24", b.ReplayLogLen())
	}
	b.Thaw()
	s.Run()
	if len(held) != 0 {
		t.Fatalf("%d packets never delivered", len(held))
	}
	pooled := len(seen)
	send(24)
	s.Run()
	if len(seen) != pooled {
		t.Fatalf("free list allocated %d new packets with %d released", len(seen)-pooled, pooled)
	}
}
