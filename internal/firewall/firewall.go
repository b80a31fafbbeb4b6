// Package firewall implements the paper's central mechanism, the
// temporal firewall (§4.1): a control layer inside the guest kernel that
// suspends time and execution for everything *inside* the firewall while
// the small set of activities that perform the checkpoint keep running
// *outside* it.
//
// The paper's classification of guest kernel activity — user threads,
// kernel threads, interrupt handlers, deferrable functions (softirqs,
// tasklets, workqueues), and timer jobs — maps directly onto the Class
// enum. The activities allowed outside are exactly those the paper
// enumerates: the suspend thread, virtual device drivers (block IRQ
// drain), and the XenBus event channels used to coordinate with the
// hypervisor. Exception handlers (page faults) also run outside.
//
// Engaging the firewall freezes the guest's virtual clock and unhooks
// every pending inside-activity, recording either remaining virtual time
// (timers) or remaining CPU work (compute bursts). Disengaging re-arms
// them, so from inside the firewall the checkpoint never happened.
//
// Engage, Disengage and Replan walk pending handles in registration
// order. The re-arm order on thaw sets the simulator's tie-break
// sequence, so walking in any other order would reorder guest timers
// that share a deadline — a checkpoint the guest could observe.
package firewall

import (
	"fmt"

	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/vclock"
)

// Class identifies which kind of guest activity a scheduled callback
// belongs to, following the taxonomy of §4.1.
type Class uint8

// Activity classes. The first five live inside the firewall; the last
// three run outside during a checkpoint.
const (
	UserThread Class = iota
	KernelThread
	SoftIRQ
	TimerJob
	DeviceIRQ
	// Outside the firewall:
	SuspendThread
	XenBus
	BlockDrainIRQ
	PageFault
)

// Inside reports whether the class is suspended by an engaged firewall.
func (c Class) Inside() bool { return c < SuspendThread }

func (c Class) String() string {
	switch c {
	case UserThread:
		return "user-thread"
	case KernelThread:
		return "kernel-thread"
	case SoftIRQ:
		return "softirq"
	case TimerJob:
		return "timer"
	case DeviceIRQ:
		return "device-irq"
	case SuspendThread:
		return "suspend-thread"
	case XenBus:
		return "xenbus"
	case BlockDrainIRQ:
		return "block-drain-irq"
	default:
		return "page-fault"
	}
}

type kind uint8

const (
	kindTimer kind = iota
	kindCompute
)

// Handle is one scheduled guest activity.
type Handle struct {
	fw *Firewall
	fn func()
	// fireFn caches the h.fire method value: binding it allocates, so a
	// handle binds it once and every reuse of a pooled handle re-arms
	// its timer with the cached value.
	fireFn func()

	// tm is the handle's reusable underlying event (it also carries the
	// debug name): the handle owns it exclusively (sim.Timer's
	// single-owner contract), so one Event serves every arm across
	// engage/disengage/replan cycles and the handle+event pair is a
	// single allocation.
	tm    sim.Timer
	class Class
	k     kind
	done  bool
	// pooled marks a handle scheduled through DoAfter/DoCompute: no
	// pointer to it escaped, so it returns to the firewall's free list
	// the moment it fires.
	pooled bool

	// kindTimer: absolute due time in the underlying simulator, valid
	// while armed; remaining is captured on engage.
	remaining sim.Time

	// kindCompute:
	cpu       *node.CPU
	workLeft  sim.Time
	startedAt sim.Time

	// prev/next link the handle into its firewall's pending list, in
	// registration order, until it fires or is cancelled.
	prev, next *Handle
}

// Class reports the handle's activity class.
func (h *Handle) Class() Class { return h.class }

// Done reports whether the callback has fired.
func (h *Handle) Done() bool { return h.done }

// Firewall is the per-guest temporal firewall.
type Firewall struct {
	s     *sim.Simulator
	clock *vclock.Clock

	engaged bool
	// head/tail bound the intrusive list of suspended-or-armed
	// handles in registration order; pending is its length.
	head, tail *Handle
	pending    int
	// free holds fired pooled handles for reuse by DoAfter/DoCompute;
	// it is bounded by the peak number of pooled handles pending at
	// once.
	free []*Handle

	// InsideFired counts inside-class callbacks that fired while the
	// firewall was engaged. Transparency demands this stays zero; tests
	// assert on it.
	InsideFired int
	// OutsideFired counts outside-class callbacks fired while engaged —
	// the checkpoint's own activity.
	OutsideFired int
	// Engages counts engage/disengage cycles.
	Engages int
}

// New creates a firewall around the given guest clock.
func New(s *sim.Simulator, clock *vclock.Clock) *Firewall {
	return &Firewall{s: s, clock: clock}
}

// Clock exposes the guarded clock.
func (f *Firewall) Clock() *vclock.Clock { return f.clock }

// Engaged reports whether the firewall is currently engaged.
func (f *Firewall) Engaged() bool { return f.engaged }

// Pending reports the number of suspended-or-armed handles.
func (f *Firewall) Pending() int { return f.pending }

// link appends h to the pending list.
func (f *Firewall) link(h *Handle) {
	h.prev = f.tail
	if f.tail != nil {
		f.tail.next = h
	} else {
		f.head = h
	}
	f.tail = h
	f.pending++
}

// unlink removes h from the pending list.
func (f *Firewall) unlink(h *Handle) {
	if h.prev != nil {
		h.prev.next = h.next
	} else {
		f.head = h.next
	}
	if h.next != nil {
		h.next.prev = h.prev
	} else {
		f.tail = h.prev
	}
	h.prev, h.next = nil, nil
	f.pending--
}

// After schedules fn to run after d of guest virtual time. The
// underlying event is armed at the real-time equivalent (scaled by the
// clock's dilation factor); engage/disengage moves it so the *virtual*
// delay is preserved exactly.
func (f *Firewall) After(class Class, d sim.Time, name string, fn func()) *Handle {
	return f.after(class, d, name, fn, false)
}

// DoAfter is After without a handle, mirroring sim.DoAt: the handle
// comes from the firewall's free list and goes back to it when it
// fires, so steady-state guest timers allocate nothing. Nothing can
// cancel it; use After for anything that may need cancelling.
func (f *Firewall) DoAfter(class Class, d sim.Time, name string, fn func()) {
	f.after(class, d, name, fn, true)
}

func (f *Firewall) after(class Class, d sim.Time, name string, fn func(), pooled bool) *Handle {
	if d < 0 {
		d = 0
	}
	h := f.handle(class, kindTimer, name, fn, pooled)
	if f.engaged && class.Inside() {
		// Scheduled from outside-code while frozen (e.g. a device
		// handler queuing guest work): park it with full delay.
		h.remaining = d
		return h
	}
	h.arm(d)
	return h
}

// Compute schedules fn to run after `work` nanoseconds of guest CPU work
// on cpu, accounting for dom0 contention. Engage captures remaining
// work; disengage re-plans it.
func (f *Firewall) Compute(class Class, cpu *node.CPU, work sim.Time, name string, fn func()) *Handle {
	return f.compute(class, cpu, work, name, fn, false)
}

// DoCompute is Compute without a handle, pooled like DoAfter.
func (f *Firewall) DoCompute(class Class, cpu *node.CPU, work sim.Time, name string, fn func()) {
	f.compute(class, cpu, work, name, fn, true)
}

func (f *Firewall) compute(class Class, cpu *node.CPU, work sim.Time, name string, fn func(), pooled bool) *Handle {
	if work < 0 {
		work = 0
	}
	h := f.handle(class, kindCompute, name, fn, pooled)
	h.cpu, h.workLeft = cpu, work
	if f.engaged && class.Inside() {
		return h
	}
	h.armCompute()
	return h
}

// handle returns an unarmed handle appended to the pending list: a
// recycled one for pooled calls when the free list has one, otherwise a
// fresh allocation.
func (f *Firewall) handle(class Class, k kind, name string, fn func(), pooled bool) *Handle {
	var h *Handle
	if n := len(f.free); pooled && n > 0 {
		h = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		h = &Handle{fw: f}
		h.fireFn = h.fire
	}
	h.class, h.k, h.fn, h.pooled = class, k, fn, pooled
	f.s.InitTimer(&h.tm, name, h.fireFn)
	f.link(h)
	return h
}

// arm schedules the underlying event d of *virtual* time from now.
func (h *Handle) arm(d sim.Time) {
	h.tm.Reset(h.fw.clock.ToReal(d))
}

func (h *Handle) armCompute() {
	h.startedAt = h.fw.s.Now()
	end := h.cpu.FinishTime(h.startedAt, h.workLeft)
	if end == sim.Never {
		// CPU indefinitely stalled; leave unarmed — Replan re-arms when
		// the contention picture changes.
		return
	}
	h.tm.Schedule(end)
}

func (h *Handle) fire() {
	f := h.fw
	if f.engaged {
		if h.class.Inside() {
			f.InsideFired++
		} else {
			f.OutsideFired++
		}
	}
	h.done = true
	f.unlink(h)
	fn := h.fn
	if h.pooled {
		// Recycle before running fn, which may DoAfter a follow-up that
		// reuses this very handle. Zeroing drops the callback and the
		// CPU so the pool pins nothing, and leaves no class, remaining
		// time or work for the next use to inherit.
		*h = Handle{fw: f, fireFn: h.fireFn}
		f.free = append(f.free, h)
	}
	fn()
}

// Cancel prevents the handle from firing.
func (f *Firewall) Cancel(h *Handle) {
	if h == nil || h.done {
		return
	}
	h.tm.Stop()
	h.done = true
	f.unlink(h)
}

// Engage freezes the clock and suspends every pending inside-handle.
// engageLeak is the virtual-time cost of the engage path (see vclock).
func (f *Firewall) Engage(engageLeak sim.Time) {
	if f.engaged {
		panic("firewall: double engage")
	}
	f.engaged = true
	f.Engages++
	f.clock.Freeze(engageLeak)
	now := f.s.Now()
	for h := f.head; h != nil; h = h.next {
		if !h.class.Inside() || !h.tm.Pending() {
			continue
		}
		switch h.k {
		case kindTimer:
			// Preserve the remaining delay in virtual units.
			h.remaining = f.clock.ToVirtual(h.tm.When() - now)
			if h.remaining < 0 {
				h.remaining = 0
			}
		case kindCompute:
			progressed := h.cpu.Progress(h.startedAt, now)
			h.workLeft -= progressed
			if h.workLeft < 0 {
				h.workLeft = 0
			}
		}
		h.tm.Stop()
	}
}

// Disengage thaws the clock and re-arms every suspended inside-handle
// with its preserved remaining time or work.
func (f *Firewall) Disengage(disengageLeak sim.Time) {
	if !f.engaged {
		panic("firewall: disengage while not engaged")
	}
	f.engaged = false
	f.clock.Thaw(disengageLeak)
	for h := f.head; h != nil; h = h.next {
		if !h.class.Inside() || h.tm.Pending() {
			continue
		}
		switch h.k {
		case kindTimer:
			h.arm(h.remaining)
		case kindCompute:
			h.armCompute()
		}
	}
}

// Replan re-computes completion times for armed compute handles. The
// hypervisor calls this after registering new dom0 CPU interference so
// in-progress guest bursts feel it (Fig. 5's residual checkpoint
// activity).
func (f *Firewall) Replan() {
	if f.engaged {
		return // everything inside is parked already
	}
	now := f.s.Now()
	for h := f.head; h != nil; h = h.next {
		if h.k != kindCompute {
			continue
		}
		if h.tm.Pending() {
			progressed := h.cpu.Progress(h.startedAt, now)
			h.workLeft -= progressed
			if h.workLeft < 0 {
				h.workLeft = 0
			}
			h.tm.Stop()
		}
		h.armCompute()
	}
}

// Describe returns a debug summary of pending activity by class.
func (f *Firewall) Describe() string {
	counts := map[Class]int{}
	for h := f.head; h != nil; h = h.next {
		counts[h.class]++
	}
	return fmt.Sprintf("firewall engaged=%v pending=%v", f.engaged, counts)
}
