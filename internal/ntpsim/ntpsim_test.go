package ntpsim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"emucheck/internal/sim"
)

func TestUndisciplinedClockIsBad(t *testing.T) {
	s := sim.New(1)
	y := New(s, DefaultModel(), 1)
	if got := y.Error("ghost"); got != 500*sim.Millisecond {
		t.Fatalf("error = %v", got)
	}
	if y.Started("ghost") {
		t.Fatal("ghost started")
	}
}

func TestErrorConverges(t *testing.T) {
	s := sim.New(1)
	y := New(s, DefaultModel(), 1)
	y.Start("a")
	abs := func(x sim.Time) sim.Time {
		if x < 0 {
			return -x
		}
		return x
	}
	early := abs(y.ErrorAt("a", 1*sim.Second))
	late := abs(y.ErrorAt("a", 30*sim.Second))
	if early < 2*sim.Millisecond {
		t.Fatalf("early error %v too small", early)
	}
	if late > 400*sim.Microsecond {
		t.Fatalf("late error %v did not converge", late)
	}
	if late >= early {
		t.Fatal("no convergence")
	}
}

func TestSteadyStateNearPaperFigure(t *testing.T) {
	s := sim.New(1)
	y := New(s, DefaultModel(), 2)
	y.Start("a")
	y.Start("b")
	// After a minute, pairwise skew should be in the ~200 µs LAN regime.
	var worst sim.Time
	for ti := 60 * sim.Second; ti < 120*sim.Second; ti += 5 * sim.Second {
		if sk := y.Skew(ti, "a", "b"); sk > worst {
			worst = sk
		}
	}
	if worst > 500*sim.Microsecond {
		t.Fatalf("steady-state skew %v, want <= ~2x200us", worst)
	}
	if worst <= 0 {
		t.Fatal("skew should not be identically zero")
	}
}

func TestErrorIsDeterministicAndOrderIndependent(t *testing.T) {
	build := func() *Sync {
		s := sim.New(1)
		y := New(s, DefaultModel(), 3)
		y.Start("a")
		y.Start("b")
		return y
	}
	y1 := build()
	y2 := build()
	// Query y1 in one order, y2 in another.
	a1 := y1.ErrorAt("a", 10*sim.Second)
	b1 := y1.ErrorAt("b", 20*sim.Second)
	b2 := y2.ErrorAt("b", 20*sim.Second)
	a2 := y2.ErrorAt("a", 10*sim.Second)
	if a1 != a2 || b1 != b2 {
		t.Fatalf("order-dependent errors: %v/%v vs %v/%v", a1, b1, a2, b2)
	}
}

func TestLocalTrigger(t *testing.T) {
	s := sim.New(1)
	y := New(s, DefaultModel(), 4)
	y.Start("a")
	T := 10 * sim.Second
	tr := y.LocalTrigger("a", T)
	if got := tr + y.ErrorAt("a", T); got != T {
		t.Fatalf("trigger inconsistent: %v", got)
	}
}

func TestSkewEmpty(t *testing.T) {
	s := sim.New(1)
	y := New(s, DefaultModel(), 5)
	if y.Skew(sim.Second) != 0 {
		t.Fatal("empty skew")
	}
}

func TestConvergenceShapeMatchesFig6(t *testing.T) {
	// The paper's four checkpoint gaps at 5 s intervals decrease:
	// 5801, 816, 399, 330 µs. Check the model's skew decreases in the
	// same pattern: first gap milliseconds, later gaps sub-millisecond.
	s := sim.New(1)
	y := New(s, DefaultModel(), 6)
	y.Start("sender")
	y.Start("receiver")
	g1 := y.Skew(5*sim.Second, "sender", "receiver")
	g2 := y.Skew(10*sim.Second, "sender", "receiver")
	g4 := y.Skew(20*sim.Second, "sender", "receiver")
	if g1 < sim.Millisecond || g1 > 12*sim.Millisecond {
		t.Fatalf("first gap %v outside paper band", g1)
	}
	if g2 >= g1 {
		t.Fatalf("gap did not shrink: %v -> %v", g1, g2)
	}
	if g4 > 800*sim.Microsecond {
		t.Fatalf("fourth gap %v too large", g4)
	}
}

// Property: error magnitude is non-increasing in time between epochs of
// the floor process (sampled coarsely), and never exceeds the initial
// amplitude plus floor.
func TestPropertyBounded(t *testing.T) {
	f := func(tSec uint8) bool {
		s := sim.New(7)
		m := DefaultModel()
		y := New(s, m, 8)
		y.Start("n")
		e := y.ErrorAt("n", sim.Time(tSec)*sim.Second)
		if e < 0 {
			e = -e
		}
		return e <= m.InitialErrHi+m.FloorHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDrawsArePureInSeedAndName: a node's start draws depend only on
// (seed, name) and its floor only on (salt, epoch), whatever order nodes
// are started and epochs are touched in.
func TestDrawsArePureInSeedAndName(t *testing.T) {
	m := DefaultModel()
	names := []string{"node0", "node1", "delay-a", "n"}
	for _, seed := range []int64{0, 1, 0x7ab5, -42} {
		fwd, rev := New(sim.New(1), m, seed), New(sim.New(2), m, seed)
		for i := range names {
			fwd.Start(names[i])
			rev.Start(names[len(names)-1-i])
		}
		for _, name := range names {
			a, b := fwd.nodes[name], rev.nodes[name]
			if a.amp != b.amp || a.salt != b.salt {
				t.Fatalf("seed %d %s: start draws depend on start order", seed, name)
			}
			if v := math.Abs(a.amp); v < float64(m.InitialErrLo) || v >= float64(m.InitialErrHi) {
				t.Fatalf("seed %d %s: amplitude %v outside ±[%v, %v)", seed, name, a.amp, m.InitialErrLo, m.InitialErrHi)
			}
			for _, epoch := range []sim.Time{5, 0, 9, 1} {
				at := epoch * m.FloorEpoch
				if fwd.floor(a, at) != rev.floor(b, at) {
					t.Fatalf("seed %d %s epoch %d: floor depends on access order", seed, name, epoch)
				}
			}
		}
	}
}

// TestErrorQueriesAllocateNothing: a started node's error and trigger
// are computed, not memoized, so querying them allocates nothing — not
// even the first query of a node, which used to create its floor memo.
func TestErrorQueriesAllocateNothing(t *testing.T) {
	y := New(sim.New(1), DefaultModel(), 9)
	names := make([]string, 101) // AllocsPerRun's warm-up plus 100 runs
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
		y.Start(names[i])
	}
	next := 0
	allocs := testing.AllocsPerRun(len(names)-1, func() {
		name := names[next]
		next++
		at := sim.Time(next) * sim.Second
		y.ErrorAt(name, at)
		y.LocalTrigger(name, at)
	})
	if allocs != 0 {
		t.Fatalf("ErrorAt+LocalTrigger allocate %v per call", allocs)
	}
}

var errSink sim.Time

// BenchmarkStartAndFloor: one node start plus two floor epochs, the
// draws a checkpointed node costs the NTP model.
func BenchmarkStartAndFloor(b *testing.B) {
	m := DefaultModel()
	y := New(sim.New(1), m, 10)
	names := []string{"node0", "node1", "delay-a", "n"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		name := names[i%len(names)]
		at := sim.Time(i) * sim.Second
		y.Start(name)
		errSink += y.ErrorAt(name, at) + y.ErrorAt(name, at+m.FloorEpoch)
	}
}
