package firewall

import (
	"testing"
	"testing/quick"

	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/vclock"
)

func setup(seed int64) (*sim.Simulator, *vclock.Clock, *Firewall) {
	s := sim.New(seed)
	c := vclock.New(s, 0)
	return s, c, New(s, c)
}

func TestTimerFiresNormally(t *testing.T) {
	s, _, f := setup(1)
	var at sim.Time
	f.After(TimerJob, 10*sim.Millisecond, "t", func() { at = s.Now() })
	s.Run()
	if at != 10*sim.Millisecond {
		t.Fatalf("fired at %v", at)
	}
	if f.Pending() != 0 {
		t.Fatal("pending not cleared")
	}
}

func TestEngageSuspendsInsideTimers(t *testing.T) {
	s, c, f := setup(1)
	var firedVirtual sim.Time
	f.After(TimerJob, 10*sim.Millisecond, "t", func() { firedVirtual = c.SystemTime() })
	s.RunFor(4 * sim.Millisecond)
	f.Engage(0)
	s.RunFor(100 * sim.Millisecond) // long checkpoint
	if firedVirtual != 0 {
		t.Fatal("timer fired during engage")
	}
	f.Disengage(0)
	s.Run()
	// Virtual delay must be exactly 10 ms despite the 100 ms freeze.
	if firedVirtual != 10*sim.Millisecond {
		t.Fatalf("virtual fire time = %v, want 10ms", firedVirtual)
	}
	if f.InsideFired != 0 {
		t.Fatalf("inside activity during checkpoint: %d", f.InsideFired)
	}
}

func TestOutsideClassRunsDuringEngage(t *testing.T) {
	s, _, f := setup(1)
	fired := false
	f.Engage(0)
	f.After(XenBus, sim.Millisecond, "xb", func() { fired = true })
	s.RunFor(10 * sim.Millisecond)
	if !fired {
		t.Fatal("xenbus handler suppressed by firewall")
	}
	if f.OutsideFired != 1 {
		t.Fatalf("outside fired = %d", f.OutsideFired)
	}
	f.Disengage(0)
}

func TestInsideScheduledWhileEngagedParks(t *testing.T) {
	s, c, f := setup(1)
	var firedVirtual sim.Time = -1
	f.Engage(0)
	// Outside code (e.g. a device driver) queues inside work mid-ckpt.
	f.After(SoftIRQ, 5*sim.Millisecond, "si", func() { firedVirtual = c.SystemTime() })
	s.RunFor(50 * sim.Millisecond)
	if firedVirtual != -1 {
		t.Fatal("inside work ran while engaged")
	}
	f.Disengage(0)
	s.Run()
	if firedVirtual != 5*sim.Millisecond {
		t.Fatalf("virtual fire = %v, want 5ms", firedVirtual)
	}
}

func TestComputeNoContention(t *testing.T) {
	s, _, f := setup(1)
	cpu := node.NewCPU(s)
	var at sim.Time
	f.Compute(UserThread, cpu, 200*sim.Millisecond, "job", func() { at = s.Now() })
	s.Run()
	if at != 200*sim.Millisecond {
		t.Fatalf("compute finished at %v", at)
	}
}

func TestComputeAcrossEngagePreservesWork(t *testing.T) {
	s, c, f := setup(1)
	cpu := node.NewCPU(s)
	var virt sim.Time
	f.Compute(UserThread, cpu, 100*sim.Millisecond, "job", func() { virt = c.SystemTime() })
	s.RunFor(30 * sim.Millisecond)
	f.Engage(0)
	s.RunFor(500 * sim.Millisecond)
	f.Disengage(0)
	s.Run()
	if virt != 100*sim.Millisecond {
		t.Fatalf("virtual completion = %v, want 100ms", virt)
	}
}

func TestComputeFeelsDom0Steal(t *testing.T) {
	s, _, f := setup(1)
	cpu := node.NewCPU(s)
	var at sim.Time
	// Register interference before the burst: 20 ms fully stolen.
	cpu.Steal(10*sim.Millisecond, 20*sim.Millisecond, 1.0)
	f.Compute(UserThread, cpu, 100*sim.Millisecond, "job", func() { at = s.Now() })
	s.Run()
	if at != 120*sim.Millisecond {
		t.Fatalf("finished at %v, want 120ms", at)
	}
}

func TestReplanAppliesLateInterference(t *testing.T) {
	s, _, f := setup(1)
	cpu := node.NewCPU(s)
	var at sim.Time
	f.Compute(UserThread, cpu, 100*sim.Millisecond, "job", func() { at = s.Now() })
	s.RunFor(50 * sim.Millisecond)
	// dom0 work arrives mid-burst: without Replan the completion event
	// would be stale.
	cpu.Steal(s.Now(), 10*sim.Millisecond, 1.0)
	f.Replan()
	s.Run()
	if at != 110*sim.Millisecond {
		t.Fatalf("finished at %v, want 110ms", at)
	}
}

func TestCancel(t *testing.T) {
	s, _, f := setup(1)
	fired := false
	h := f.After(TimerJob, sim.Millisecond, "t", func() { fired = true })
	f.Cancel(h)
	s.Run()
	if fired || f.Pending() != 0 {
		t.Fatal("cancel failed")
	}
	f.Cancel(h) // idempotent
	f.Cancel(nil)
}

func TestCancelSuspendedHandle(t *testing.T) {
	s, _, f := setup(1)
	fired := false
	h := f.After(TimerJob, sim.Millisecond, "t", func() { fired = true })
	f.Engage(0)
	f.Cancel(h)
	f.Disengage(0)
	s.Run()
	if fired {
		t.Fatal("cancelled suspended handle fired")
	}
}

func TestDoubleEngagePanics(t *testing.T) {
	_, _, f := setup(1)
	f.Engage(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Engage(0)
}

func TestDisengageIdlePanics(t *testing.T) {
	_, _, f := setup(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Disengage(0)
}

func TestRepeatedCheckpointCycles(t *testing.T) {
	s, c, f := setup(1)
	// A periodic 10 ms virtual timer, checkpointed every cycle.
	var ticks []sim.Time
	var tick func()
	tick = func() {
		ticks = append(ticks, c.SystemTime())
		if len(ticks) < 10 {
			f.After(TimerJob, 10*sim.Millisecond, "tick", tick)
		}
	}
	f.After(TimerJob, 10*sim.Millisecond, "tick", tick)
	for i := 0; i < 10; i++ {
		s.RunFor(7 * sim.Millisecond)
		f.Engage(0)
		s.RunFor(55 * sim.Millisecond) // checkpoint
		f.Disengage(0)
	}
	s.Run()
	if len(ticks) != 10 {
		t.Fatalf("ticks = %d", len(ticks))
	}
	for i, ti := range ticks {
		want := sim.Time(i+1) * 10 * sim.Millisecond
		if ti != want {
			t.Fatalf("tick %d at virtual %v, want %v", i, ti, want)
		}
	}
	if f.InsideFired != 0 {
		t.Fatal("inside activity leaked into checkpoints")
	}
}

// Property: for any engage point within the timer's life and any freeze
// length, the observed *virtual* delay of a timer equals the requested
// delay exactly (with zero leak).
func TestPropertyVirtualDelayExact(t *testing.T) {
	f := func(delayMs, engageAtMs, freezeMs uint8) bool {
		d := sim.Time(delayMs%50+1) * sim.Millisecond
		at := sim.Time(engageAtMs) * sim.Millisecond % d
		s := sim.New(7)
		c := vclock.New(s, 0)
		fw := New(s, c)
		var virt sim.Time = -1
		fw.After(TimerJob, d, "t", func() { virt = c.SystemTime() })
		s.RunFor(at)
		fw.Engage(0)
		s.RunFor(sim.Time(freezeMs) * sim.Millisecond)
		fw.Disengage(0)
		s.Run()
		return virt == d && fw.InsideFired == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: compute work is conserved across any checkpoint placement —
// real completion = work + freeze duration when there is no contention.
func TestPropertyComputeConservation(t *testing.T) {
	f := func(workMs, engageAtMs, freezeMs uint8) bool {
		work := sim.Time(workMs%80+1) * sim.Millisecond
		at := sim.Time(engageAtMs) * sim.Millisecond % work
		s := sim.New(8)
		c := vclock.New(s, 0)
		fw := New(s, c)
		cpu := node.NewCPU(s)
		var real sim.Time = -1
		fw.Compute(UserThread, cpu, work, "job", func() { real = s.Now() })
		s.RunFor(at)
		fw.Engage(0)
		freeze := sim.Time(freezeMs) * sim.Millisecond
		s.RunFor(freeze)
		fw.Disengage(0)
		s.Run()
		return real == work+freeze
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerHonorsDilation(t *testing.T) {
	s, c, f := setup(1)
	c.SetDilation(3)
	var realAt sim.Time
	var virtAt sim.Time
	f.After(TimerJob, 10*sim.Millisecond, "t", func() {
		realAt, virtAt = s.Now(), c.SystemTime()
	})
	s.Run()
	if realAt != 30*sim.Millisecond {
		t.Fatalf("fired at real %v, want 30ms under 3x dilation", realAt)
	}
	if virtAt != 10*sim.Millisecond {
		t.Fatalf("fired at virtual %v, want 10ms", virtAt)
	}
}

func TestDilatedTimerAcrossCheckpoint(t *testing.T) {
	s, c, f := setup(1)
	c.SetDilation(2)
	var virtAt sim.Time = -1
	f.After(TimerJob, 20*sim.Millisecond, "t", func() { virtAt = c.SystemTime() })
	s.RunFor(10 * sim.Millisecond) // 5 ms virtual elapsed
	f.Engage(0)
	s.RunFor(100 * sim.Millisecond)
	f.Disengage(0)
	s.Run()
	if virtAt != 20*sim.Millisecond {
		t.Fatalf("virtual fire = %v, want exactly 20ms", virtAt)
	}
}

func TestClassTaxonomy(t *testing.T) {
	inside := []Class{UserThread, KernelThread, SoftIRQ, TimerJob, DeviceIRQ}
	outside := []Class{SuspendThread, XenBus, BlockDrainIRQ, PageFault}
	for _, c := range inside {
		if !c.Inside() {
			t.Fatalf("%v should be inside the firewall", c)
		}
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
	for _, c := range outside {
		if c.Inside() {
			t.Fatalf("%v should run outside the firewall", c)
		}
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
}

func TestDescribe(t *testing.T) {
	s, _, f := setup(1)
	f.After(TimerJob, sim.Second, "t", func() {})
	f.After(UserThread, sim.Second, "u", func() {})
	if d := f.Describe(); d == "" {
		t.Fatal("empty describe")
	}
	_ = s
}

func TestEngagesCounter(t *testing.T) {
	_, _, f := setup(1)
	for i := 0; i < 3; i++ {
		f.Engage(0)
		f.Disengage(0)
	}
	if f.Engages != 3 {
		t.Fatalf("engages = %d", f.Engages)
	}
}

func TestHandleDoneFlag(t *testing.T) {
	s, _, f := setup(1)
	h := f.After(TimerJob, sim.Millisecond, "t", func() {})
	if h.Done() {
		t.Fatal("premature done")
	}
	s.Run()
	if !h.Done() {
		t.Fatal("not done after firing")
	}
	if h.Class() != TimerJob {
		t.Fatal("class accessor")
	}
}

func TestReplanWhileEngagedIsNoop(t *testing.T) {
	s, _, f := setup(1)
	cpu := node.NewCPU(s)
	fired := false
	f.Compute(UserThread, cpu, 10*sim.Millisecond, "j", func() { fired = true })
	f.Engage(0)
	f.Replan() // must not re-arm anything inside an engaged firewall
	s.RunFor(sim.Second)
	if fired {
		t.Fatal("compute fired during engage after Replan")
	}
	f.Disengage(0)
	s.Run()
	if !fired {
		t.Fatal("compute lost")
	}
}

// TestThawKeepsSameDeadlineOrder: inside timers that share a deadline
// fire in registration order whether or not a checkpoint froze them
// mid-flight. Disengage's re-arm order sets the simulator's tie-break,
// so a thaw that walked handles in any other order would let the guest
// observe the checkpoint as reordered events.
func TestThawKeepsSameDeadlineOrder(t *testing.T) {
	const want = "01234567"
	for run := 0; run < 50; run++ {
		s, _, f := setup(int64(run))
		var got []byte
		for i := 0; i < len(want); i++ {
			c := want[i]
			f.After(TimerJob, 10*sim.Millisecond, "t", func() { got = append(got, c) })
		}
		s.RunFor(4 * sim.Millisecond)
		f.Engage(0)
		s.RunFor(30 * sim.Millisecond)
		f.Disengage(0)
		s.Run()
		if string(got) != want {
			t.Fatalf("run %d: same-deadline timers fired in order %q after a thaw, want %q", run, got, want)
		}
	}
}
