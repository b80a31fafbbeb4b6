package simnet

import (
	"slices"
	"testing"
	"testing/quick"

	"emucheck/internal/sim"
)

func pair(s *sim.Simulator, speed Bitrate, delay sim.Time) (*NIC, *NIC) {
	a := NewNIC(s, "a", speed)
	b := NewNIC(s, "b", speed)
	a.Attach(NewWire(s, delay, b))
	b.Attach(NewWire(s, delay, a))
	return a, b
}

func TestTxSerializationDelay(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 0)
	var got sim.Time
	b.OnReceive(func(p *Packet) { got = s.Now() })
	a.Send(&Packet{Dst: "b", Size: 1500})
	s.Run()
	want := Bitrate(1000 * Mbps).TxTime(1500) // 12 us at 1 Gbps
	if got != want {
		t.Fatalf("arrival at %v, want %v", got, want)
	}
	if want != 12*sim.Microsecond {
		t.Fatalf("1500B@1Gbps = %v, want 12us", want)
	}
}

func TestBackToBackQueueing(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 100*Mbps, 0)
	var arrivals []sim.Time
	b.OnReceive(func(p *Packet) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Dst: "b", Size: 1250}) // 100 us each at 100 Mbps
	}
	s.Run()
	if len(arrivals) != 3 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	for i, want := range []sim.Time{100 * sim.Microsecond, 200 * sim.Microsecond, 300 * sim.Microsecond} {
		if arrivals[i] != want {
			t.Fatalf("arrival %d at %v, want %v", i, arrivals[i], want)
		}
	}
}

func TestPropagationDelayAdds(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 5*sim.Millisecond)
	var got sim.Time
	b.OnReceive(func(p *Packet) { got = s.Now() })
	a.Send(&Packet{Dst: "b", Size: 1500})
	s.Run()
	want := 5*sim.Millisecond + 12*sim.Microsecond
	if got != want {
		t.Fatalf("arrival %v, want %v", got, want)
	}
}

func TestCounters(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 100*Mbps, 0)
	b.OnReceive(func(p *Packet) {})
	a.Send(&Packet{Dst: "b", Size: 1000})
	a.Send(&Packet{Dst: "b", Size: 500})
	s.Run()
	if a.TX.Packets != 2 || a.TX.Bytes != 1500 {
		t.Fatalf("tx counters: %+v", a.TX)
	}
	if b.RX.Packets != 2 || b.RX.Bytes != 1500 {
		t.Fatalf("rx counters: %+v", b.RX)
	}
}

func TestNoHandlerCountsDrop(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 100*Mbps, 0)
	a.Send(&Packet{Dst: "b", Size: 100})
	s.Run()
	if b.Dropped != 1 {
		t.Fatalf("dropped = %d", b.Dropped)
	}
}

func TestNoAttachmentCountsDrop(t *testing.T) {
	s := sim.New(1)
	n := NewNIC(s, "x", 100*Mbps)
	n.Send(&Packet{Dst: "y", Size: 100})
	if n.Dropped != 1 {
		t.Fatalf("dropped = %d", n.Dropped)
	}
}

func TestFreezeLogsAndThawReplaysInOrder(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 0)
	var got []uint64
	b.OnReceive(func(p *Packet) { got = append(got, p.ID) })
	b.Freeze()
	for i := 0; i < 5; i++ {
		a.Send(&Packet{Dst: "b", Size: 1500})
	}
	s.Run()
	if len(got) != 0 {
		t.Fatal("frozen NIC delivered packets")
	}
	if b.ReplayLogLen() != 5 {
		t.Fatalf("replay log = %d", b.ReplayLogLen())
	}
	b.Thaw()
	s.Run()
	if len(got) != 5 {
		t.Fatalf("replayed %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order replay: %v", got)
		}
	}
}

func TestThawPreservesPerFlowOrderAcrossFlows(t *testing.T) {
	s := sim.New(1)
	recv := NewNIC(s, "r", 1000*Mbps)
	a := NewNIC(s, "a", 1000*Mbps)
	c := NewNIC(s, "c", 1000*Mbps)
	a.Attach(NewWire(s, 0, recv))
	c.Attach(NewWire(s, sim.Microsecond, recv))
	var got []string
	seq := map[string]int{}
	recv.OnReceive(func(p *Packet) {
		got = append(got, p.Flow)
		seq[p.Flow]++
	})
	recv.Freeze()
	// Interleave two flows.
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Dst: "r", Size: 100})
		c.Send(&Packet{Dst: "r", Size: 100})
	}
	s.Run()
	recv.Thaw()
	s.Run()
	if len(got) != 6 {
		t.Fatalf("replayed %d", len(got))
	}
	if seq["a>r"] != 3 || seq["c>r"] != 3 {
		t.Fatalf("per-flow counts: %v", seq)
	}
}

func TestReplayGapSpacing(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 0)
	var times []sim.Time
	b.OnReceive(func(p *Packet) { times = append(times, s.Now()) })
	b.Freeze()
	b.SetReplayGap(10 * sim.Microsecond)
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Dst: "b", Size: 1500})
	}
	s.Run()
	b.Thaw()
	s.Run()
	if len(times) != 3 {
		t.Fatalf("got %d", len(times))
	}
	if d := times[1] - times[0]; d != 10*sim.Microsecond {
		t.Fatalf("gap = %v", d)
	}
}

// A Thaw that comes while an earlier Thaw's replays are still pending
// keeps arrival order: the later log waits behind the earlier one.
func TestThawWhileReplaysPendingKeepsArrivalOrder(t *testing.T) {
	s := sim.New(1)
	_, b := pair(s, 1000*Mbps, 0)
	var got []uint64
	b.OnReceive(func(p *Packet) { got = append(got, p.ID) })
	b.SetReplayGap(10 * sim.Microsecond)
	b.Freeze()
	for id := uint64(1); id <= 3; id++ {
		b.Accept(&Packet{ID: id})
	}
	b.Thaw() // replays due at 0, 10 and 20 µs
	s.RunUntil(5 * sim.Microsecond)
	b.Freeze()
	for id := uint64(4); id <= 5; id++ {
		b.Accept(&Packet{ID: id})
	}
	if b.ReplayLogLen() != 2 {
		t.Fatalf("replay log = %d, want 2", b.ReplayLogLen())
	}
	b.Thaw() // replays due at 5 and 15 µs
	s.Run()
	want := []uint64{1, 2, 3, 4, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// Freezing, logging pooled packets and replaying them allocates nothing
// once the NIC's buffers are warm.
func TestFreezeThawAllocFree(t *testing.T) {
	s := sim.New(1)
	a, b := pair(s, 1000*Mbps, 0)
	b.OnReceive(func(p *Packet) { p.Release() })
	allocs := testing.AllocsPerRun(10, func() {
		b.Freeze()
		for i := 0; i < 100; i++ {
			p := a.NewPacket()
			p.Dst, p.Size = "b", 1500
			a.Send(p)
		}
		s.Run()
		b.Thaw()
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("freeze, 100 packets, thaw: %v allocs, want 0", allocs)
	}
}

func TestSwitchForwarding(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, 2*sim.Microsecond)
	a := NewNIC(s, "a", 100*Mbps)
	b := NewNIC(s, "b", 100*Mbps)
	a.Attach(sw.Ingress())
	b.Attach(sw.Ingress())
	sw.Connect("a", a)
	sw.Connect("b", b)
	var got sim.Time
	b.OnReceive(func(p *Packet) { got = s.Now() })
	a.Send(&Packet{Dst: "b", Size: 1250})
	s.Run()
	want := 100*sim.Microsecond + 2*sim.Microsecond
	if got != want {
		t.Fatalf("arrival %v, want %v", got, want)
	}
	if sw.Forwarded != 1 {
		t.Fatalf("forwarded = %d", sw.Forwarded)
	}
}

func TestSwitchUnknownDst(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, 0)
	a := NewNIC(s, "a", 100*Mbps)
	a.Attach(sw.Ingress())
	a.Send(&Packet{Dst: "nope", Size: 100})
	s.Run()
	if sw.Unknown != 1 {
		t.Fatalf("unknown = %d", sw.Unknown)
	}
}

func TestTxTimeZeroRate(t *testing.T) {
	if Bitrate(0).TxTime(1000) != 0 {
		t.Fatal("zero rate should yield zero tx time")
	}
}

func TestPacketCloneAndString(t *testing.T) {
	p := &Packet{ID: 7, Src: "a", Dst: "b", Flow: "a>b", Size: 100}
	c := p.Clone()
	c.ID = 9
	if p.ID != 7 {
		t.Fatal("clone aliased")
	}
	if p.String() == "" {
		t.Fatal("empty string")
	}
}

// Property: for any packet sizes, total received bytes equal total sent
// bytes on a loss-free path, and arrivals are monotone in time.
func TestPropertyConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := sim.New(9)
		a, b := pair(s, 100*Mbps, 3*sim.Microsecond)
		var rxBytes uint64
		last := sim.Time(-1)
		ok := true
		b.OnReceive(func(p *Packet) {
			rxBytes += uint64(p.Size)
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		})
		var txBytes uint64
		for _, raw := range sizes {
			size := int(raw%1500) + 1
			txBytes += uint64(size)
			a.Send(&Packet{Dst: "b", Size: size})
		}
		s.Run()
		return ok && rxBytes == txBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: freeze/thaw never loses or duplicates packets.
func TestPropertyFreezeLossless(t *testing.T) {
	f := func(n uint8, freezeAfter uint8) bool {
		s := sim.New(11)
		a, b := pair(s, 1000*Mbps, 0)
		count := int(n%40) + 1
		cut := int(freezeAfter) % (count + 1)
		recv := 0
		b.OnReceive(func(p *Packet) { recv++ })
		for i := 0; i < cut; i++ {
			a.Send(&Packet{Dst: "b", Size: 500})
		}
		s.Run()
		b.Freeze()
		for i := cut; i < count; i++ {
			a.Send(&Packet{Dst: "b", Size: 500})
		}
		s.Run()
		b.Thaw()
		s.Run()
		return recv == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
