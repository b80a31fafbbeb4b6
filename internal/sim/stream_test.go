package sim

import (
	"math"
	"testing"
)

// TestStreamPurity: draw n of a stream depends only on (seed, key, n),
// not on how many draws other streams made or in which order streams
// were used.
func TestStreamPurity(t *testing.T) {
	const n = 64
	alone := NewStream(3, "guest", "a")
	var want [n]uint64
	for i := range want {
		want[i] = alone.Uint64()
	}
	s := New(3)
	other := s.Stream("pipe", "a")
	a := s.Stream("guest", "a")
	for i := 0; i < n; i++ {
		for k := 0; k < i%5; k++ {
			other.Uint64()
		}
		if got := a.Uint64(); got != want[i] {
			t.Fatalf("draw %d = %#x interleaved with another stream, %#x alone", i, got, want[i])
		}
	}
	first := func(seed int64, key ...string) uint64 {
		r := NewStream(seed, key...)
		return r.Uint64()
	}
	if first(3, "ab", "c") == first(3, "a", "bc") {
		t.Fatal("key parts are not separated")
	}
	if first(3, "k") == first(4, "k") {
		t.Fatal("the seed does not key the stream")
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := NewStream(7, "float")
	for i := 0; i < 100000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0, 1): %v", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewStream(7, "jitter")
	if r.Jitter(0) != 0 {
		t.Fatal("Jitter(0) != 0")
	}
	for i := 0; i < 1000; i++ {
		j := r.Jitter(100)
		if j < 0 || j >= 100 {
			t.Fatalf("jitter out of range: %v", j)
		}
	}
}

func TestNormalTruncation(t *testing.T) {
	r := NewStream(7, "normal")
	for i := 0; i < 1000; i++ {
		if v := r.Normal(0, 1000); v < 0 {
			t.Fatalf("Normal returned negative %v", v)
		}
	}
}

func TestUniform(t *testing.T) {
	r := NewStream(7, "uniform")
	if got := r.Uniform(5, 5); got != 5 {
		t.Fatalf("degenerate Uniform = %v", got)
	}
	for i := 0; i < 1000; i++ {
		v := r.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

// TestNormalMoments: over 10^5 draws the ziggurat's sample mean and
// standard deviation sit within five standard errors of the target.
func TestNormalMoments(t *testing.T) {
	const n, mean, sd = 100000, Second, Millisecond
	r := NewStream(11, "moments")
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := float64(r.Normal(mean, sd))
		sum += v
		sq += v * v
	}
	m := sum / n
	s := math.Sqrt(sq/n - m*m)
	if se := float64(sd) / math.Sqrt(n); math.Abs(m-float64(mean)) > 5*se {
		t.Fatalf("mean %.0f ns, want %d ± %.0f", m, mean, 5*se)
	}
	// The standard error of a normal sample's deviation is sd/sqrt(2n).
	if se := float64(sd) / math.Sqrt(2*n); math.Abs(s-float64(sd)) > 5*se {
		t.Fatalf("stddev %.0f ns, want %d ± %.0f", s, sd, 5*se)
	}
}

// TestNewAllocatesOnlySimulator: New seeds no source; the Simulator is
// its one allocation, and keying a stream allocates nothing.
func TestNewAllocatesOnlySimulator(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { simSink = New(1) }); a != 1 {
		t.Fatalf("New allocates %v objects, want 1", a)
	}
	s := New(1)
	node := "node-with-a-long-name"
	if a := testing.AllocsPerRun(100, func() { streamSink = s.Stream("guest", node) }); a != 0 {
		t.Fatalf("Stream allocates %v objects, want 0", a)
	}
}

var (
	simSink    *Simulator
	streamSink Stream
	timeSink   Time
)

// BenchmarkNew: a simulator and one keyed stream.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := New(int64(i)).Stream("bench")
		timeSink += r.Jitter(Millisecond)
	}
}

func BenchmarkNormal(b *testing.B) {
	r := NewStream(1, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		timeSink += r.Normal(Millisecond, 100*Microsecond)
	}
}
