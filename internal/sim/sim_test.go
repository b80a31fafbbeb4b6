package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30, "c", func() { order = append(order, 3) })
	s.At(10, "a", func() { order = append(order, 1) })
	s.At(20, "b", func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, "tie", func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(10, "x", func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	// Double cancel is a no-op.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelDuringRun(t *testing.T) {
	s := New(1)
	var b *Event
	bFired := false
	s.At(10, "a", func() { s.Cancel(b) })
	b = s.At(20, "b", func() { bFired = true })
	s.Run()
	if bFired {
		t.Fatal("event cancelled from another event still fired")
	}
}

func TestReschedule(t *testing.T) {
	s := New(1)
	var at Time
	e := s.At(10, "x", func() { at = s.Now() })
	s.Reschedule(e, 50)
	s.Run()
	if at != 50 {
		t.Fatalf("fired at %v, want 50", at)
	}
}

func TestRescheduleDeadPanics(t *testing.T) {
	s := New(1)
	e := s.At(10, "x", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic rescheduling fired event")
		}
	}()
	s.Reschedule(e, 20)
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New(1)
	s.At(10, "x", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	s.At(5, "past", func() {})
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, ti := range []Time{10, 20, 30, 40} {
		ti := ti
		s.At(ti, "e", func() { fired = append(fired, ti) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("clock = %v, want 25", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want 4 events", fired)
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	s.RunFor(5 * Second)
	if s.Now() != 5*Second {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	n := 0
	s.At(10, "a", func() { n++; s.Stop() })
	s.At(20, "b", func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("n = %d, want 1 (stop should halt the loop)", n)
	}
	s.Run() // resume
	if n != 2 {
		t.Fatalf("n = %d, want 2 after resuming", n)
	}
}

func TestAfterClampsNegative(t *testing.T) {
	s := New(1)
	fired := Time(-1)
	s.RunFor(100)
	s.After(-50, "neg", func() { fired = s.Now() })
	s.Run()
	if fired != 100 {
		t.Fatalf("negative After fired at %v, want now (100)", fired)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(42)
		r := s.Stream("determinism")
		var out []Time
		var rec func()
		n := 0
		rec = func() {
			out = append(out, s.Now())
			n++
			if n < 100 {
				s.After(r.Jitter(Millisecond)+1, "r", rec)
			}
		}
		s.At(0, "start", rec)
		s.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tt := 1500 * Millisecond
	if tt.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tt.Seconds())
	}
	if tt.Millis() != 1500 {
		t.Fatalf("Millis = %v", tt.Millis())
	}
	if (2 * Microsecond).Micros() != 2 {
		t.Fatal("Micros")
	}
	if tt.String() != "1.5s" {
		t.Fatalf("String = %q", tt.String())
	}
}

// Property: for any set of event delays, events fire in nondecreasing
// time order and the clock never runs backwards.
func TestPropertyMonotonicDelivery(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(3)
		var stamps []Time
		for _, d := range delays {
			s.After(Time(d), "p", func() { stamps = append(stamps, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				return false
			}
		}
		return len(stamps) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling any subset of events means exactly the others fire.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint16, mask []bool) bool {
		s := New(4)
		fired := make(map[int]bool)
		events := make([]*Event, len(delays))
		for i, d := range delays {
			i := i
			events[i] = s.After(Time(d)+1, "p", func() { fired[i] = true })
		}
		for i := range delays {
			if i < len(mask) && mask[i] {
				s.Cancel(events[i])
			}
		}
		s.Run()
		for i := range delays {
			want := !(i < len(mask) && mask[i])
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(1, "b", func() {})
		s.Step()
	}
}
