package emucheck

import (
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"emucheck/internal/apps"
	"emucheck/internal/dummynet"
	"emucheck/internal/guest"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// TestPropertyTransparencyUnderRandomSchedules is the repository's
// headline property: for ANY checkpoint schedule (random intervals,
// random count), a guest measuring 20 ms sleep iterations never observes
// more than the calibrated leak + skew bound, and the distributed
// protocol always terminates with every node resumed.
func TestPropertyTransparencyUnderRandomSchedules(t *testing.T) {
	f := func(seed int64, gaps []uint8) bool {
		if len(gaps) > 6 {
			gaps = gaps[:6]
		}
		var loop *apps.SleepLoop
		sc := demoScenario()
		sc.Setup = func(s *Session) {
			loop = apps.NewSleepLoop(s.Kernel("a"), 200)
			loop.Run(nil)
		}
		s := NewSession(sc, seed%1000+1)
		// Random checkpoint schedule.
		for _, g := range gaps {
			s.RunFor(sim.Time(g%40)*100*sim.Millisecond + 200*sim.Millisecond)
			if _, err := s.Checkpoint(); err != nil {
				return false
			}
		}
		s.RunFor(10 * sim.Second)
		if loop.Times.Len() != 200 {
			return false
		}
		// Worst iteration bound: nominal 20 ms + leak (~90 µs) + jitter
		// headroom. A leaked checkpoint would show up as tens of ms.
		if loop.Times.Max() > 20.5*float64(sim.Millisecond) {
			return false
		}
		// Everyone resumed; no inside activity ran while frozen.
		for _, n := range s.Exp.Nodes {
			if n.K.Suspended() || n.K.FW.InsideFired != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyVirtualTimeNeverExceedsReal: virtual clocks only ever run
// at or below real time (dilation >= 1, freezes subtract), and never go
// backwards — across random checkpoint/swap interleavings.
func TestPropertyVirtualClockMonotone(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewSession(demoScenario(), 55)
		var last sim.Time
		for _, op := range ops {
			if len(ops) > 8 {
				ops = ops[:8]
			}
			switch op % 3 {
			case 0:
				s.RunFor(sim.Time(op%5+1) * 500 * sim.Millisecond)
			case 1:
				if _, err := s.Checkpoint(); err != nil {
					return false
				}
			case 2:
				if _, err := s.SwapOut(); err == nil {
					s.RunFor(sim.Minute)
					if _, err := s.SwapIn(true); err != nil {
						return false
					}
				}
			}
			v := s.VirtualNow("a")
			if v < last {
				return false // virtual clock ran backwards
			}
			if v > s.Now() {
				return false // virtual time outran real time
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCheckpointKeepsGuestObservedOrder: the order in which each
// guest observes its own events — same-deadline sleeps, packet
// arrivals, its own loop — is the same with a checkpoint mid-run as
// without one, for checkpoints that catch pings and pongs in the delay
// node's router queue and delay line. Timing transparency alone would
// not catch a thaw that reorders same-deadline timers or replays
// captured packets out of order.
func TestPropertyCheckpointKeepsGuestObservedOrder(t *testing.T) {
	run := func(seed int64, ckptAt sim.Time) (logA, logB []string, res *CheckpointResult) {
		s := NewSession(demoScenario(), seed)
		defer func() {
			for _, n := range s.Exp.Nodes {
				if n.K.FW.InsideFired != 0 {
					t.Fatalf("seed %d: inside activity fired during the checkpoint on %s", seed, n.K.Name)
				}
			}
		}()
		// Let NTP discipline the clocks first so the suspend skew is
		// tens of µs, well inside the workload's ms event spacing.
		s.RunFor(60 * sim.Second)
		orderWorkload(s, 30, 8, 6, &logA, &logB)
		if ckptAt > 0 {
			s.RunFor(ckptAt)
			var err error
			if res, err = s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		s.RunFor(5 * sim.Second)
		return logA, logB, res
	}
	queued, delayed := false, false
	for seed := int64(1); seed <= 3; seed++ {
		wantA, wantB, _ := run(seed, 0)
		if len(wantA) != 30*(1+8+6) || len(wantB) != 30*6 {
			t.Fatalf("seed %d: baseline observed %d/%d events, want %d/%d", seed, len(wantA), len(wantB), 30*15, 30*6)
		}
		for off := 100 * sim.Millisecond; off < 140*sim.Millisecond; off += 3 * sim.Millisecond {
			gotA, gotB, res := run(seed, off)
			if !slices.Equal(gotA, wantA) || !slices.Equal(gotB, wantB) {
				t.Fatalf("seed %d, checkpoint at +%v: guest-observed order changed", seed, off)
			}
			for _, st := range res.DelayStates {
				for _, p := range []*dummynet.PipeState{st.Forward, st.Reverse} {
					queued = queued || len(p.Queue) > 0
					delayed = delayed || len(p.DelayLine) > 0
				}
			}
		}
	}
	if !queued || !delayed {
		t.Fatalf("no checkpoint caught packets in both the router queue (%v) and the delay line (%v)", queued, delayed)
	}
}

// orderWorkload installs the guest-observed-order workload on a demo
// session: every 20 ms round, node a arms nSameDeadline Usleep timers
// that share one deadline (wakeup jitter is zeroed so they tie) and
// sends a burst of pings that queue in the delay node's router queue
// and fill its delay line; b echoes each one. Each guest logs what it
// observes, in the order it observes it.
func orderWorkload(s *Session, rounds, nSameDeadline, burst int, logA, logB *[]string) {
	ka, kb := s.Kernel("a"), s.Kernel("b")
	ka.P.WakeupJitterMean, ka.P.WakeupJitterStddev = 0, 0
	kb.Handle("ping", func(from simnet.Addr, m *guest.Message) {
		*logB = append(*logB, "ping "+m.Data.(string))
		kb.Send(from, 1500, &guest.Message{Port: "pong", Data: m.Data})
	})
	ka.Handle("pong", func(_ simnet.Addr, m *guest.Message) {
		*logA = append(*logA, "pong "+m.Data.(string))
	})
	round := 0
	var step func()
	step = func() {
		if round == rounds {
			return
		}
		r := strconv.Itoa(round)
		round++
		*logA = append(*logA, "round "+r)
		for i := 0; i < nSameDeadline; i++ {
			tag := "timer " + r + "." + strconv.Itoa(i)
			ka.Usleep(15*sim.Millisecond, func() { *logA = append(*logA, tag) })
		}
		for i := 0; i < burst; i++ {
			ka.Send("b", 1500, &guest.Message{Port: "ping", Data: r + "." + strconv.Itoa(i)})
		}
		ka.Usleep(10*sim.Millisecond, step)
	}
	step()
}
