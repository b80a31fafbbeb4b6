package node

import (
	"testing"

	"emucheck/internal/sim"
)

func TestDiskSequentialDetection(t *testing.T) {
	s := sim.New(1)
	d := NewDisk(s, DefaultParams())
	d.Submit(&DiskRequest{Op: Write, LBA: 0, Bytes: 4096})
	d.Submit(&DiskRequest{Op: Write, LBA: 4096, Bytes: 4096}) // contiguous
	s.Run()
	if d.SeekOps != 0 {
		t.Fatalf("sequential writes seeked %d times", d.SeekOps)
	}
	d.Submit(&DiskRequest{Op: Write, LBA: 1 << 30, Bytes: 4096})
	s.Run()
	if d.SeekOps != 1 {
		t.Fatalf("distant write seeks = %d", d.SeekOps)
	}
}

func TestDiskShortVsLongSeek(t *testing.T) {
	s := sim.New(1)
	p := DefaultParams()
	d := NewDisk(s, p)
	short := d.ServiceTime(32<<20, 4096) // within 64 MB: track seek
	d.headPos = 0
	long := d.ServiceTime(100<<30, 4096) // far: average seek
	if short >= long {
		t.Fatalf("short seek (%v) not cheaper than long (%v)", short, long)
	}
}

func TestDrainWithSubsequentSubmissions(t *testing.T) {
	s := sim.New(1)
	d := NewDisk(s, DefaultParams())
	var drained sim.Time = -1
	d.Submit(&DiskRequest{Op: Write, LBA: 0, Bytes: 1 << 20})
	d.Drain(func() { drained = s.Now() })
	// A request submitted after Drain keeps the disk busy; drain fires
	// only when the queue is truly empty.
	d.Submit(&DiskRequest{Op: Write, LBA: 1 << 30, Bytes: 1 << 20})
	s.Run()
	if drained < 0 {
		t.Fatal("drain never fired")
	}
	if d.QueueLen() != 0 {
		t.Fatal("queue not empty")
	}
}

func TestCPUProgressWithPartialShares(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s)
	c.Steal(0, 100*sim.Millisecond, 0.25)
	// 100 ms wall at 75% availability = 75 ms of work.
	if got := c.Progress(0, 100*sim.Millisecond); got != 75*sim.Millisecond {
		t.Fatalf("progress = %v", got)
	}
}

func TestCPUStolenTotalAccounting(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s)
	c.Steal(0, 100*sim.Millisecond, 0.5)
	c.Steal(200*sim.Millisecond, 100*sim.Millisecond, 1.0)
	if got := c.StolenTotal; got != 150*sim.Millisecond {
		t.Fatalf("stolen total = %v", got)
	}
}

func TestCPUPendingStealsGC(t *testing.T) {
	s := sim.New(1)
	c := NewCPU(s)
	c.Steal(0, 10*sim.Millisecond, 0.5)
	c.Steal(0, 20*sim.Millisecond, 0.5)
	s.RunFor(15 * sim.Millisecond)
	if got := c.PendingSteals(); got != 1 {
		t.Fatalf("pending = %d", got)
	}
	s.RunFor(10 * sim.Millisecond)
	if got := c.PendingSteals(); got != 0 {
		t.Fatalf("pending = %d", got)
	}
}

func TestDiskOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("op strings")
	}
}

// TestDiskQueueReleasesFinishedRequests: once a burst drains, neither
// the queue's backing array nor the in-service slot may still reference
// a request (and through it its Done closure).
func TestDiskQueueReleasesFinishedRequests(t *testing.T) {
	s := sim.New(1)
	d := NewDisk(s, DefaultParams())
	done := 0
	for i := int64(0); i < 32; i++ {
		d.Submit(&DiskRequest{Op: Write, LBA: i << 20, Bytes: 4096, Done: func() { done++ }})
	}
	s.Run()
	if done != 32 || d.QueueLen() != 0 {
		t.Fatalf("%d of 32 requests completed, %d still queued", done, d.QueueLen())
	}
	// Popping from the front keeps the backing array (no reslicing past
	// finished slots), so every slot it has is visible here.
	if cap(d.queue) < 31 {
		t.Fatalf("queue backing array has cap %d after a 31-deep burst; pops must copy down", cap(d.queue))
	}
	for i, r := range d.queue[:cap(d.queue)] {
		if r != nil {
			t.Fatalf("backing slot %d still holds a finished request", i)
		}
	}
	if d.cur != nil {
		t.Fatal("the in-service slot still holds a finished request")
	}
}
