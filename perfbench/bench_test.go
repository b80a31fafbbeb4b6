package main

import (
	"math/rand"
	"runtime"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{n: 1, pct: 50, value: 1, beyond: 0},
		{n: 19, pct: 50, value: 10, beyond: 9}, // too few: the median, flagged by beyond < 10
		{n: 20, pct: 50, value: 10, beyond: 10},
		{n: 39, pct: 50, value: 20, beyond: 19},
		{n: 40, pct: 75, value: 30, beyond: 10},
		{n: 100, pct: 90, value: 90, beyond: 10},
		{n: 999, pct: 95, value: 950, beyond: 49},
		{n: 1000, pct: 99, value: 990, beyond: 10},
		{n: 10000, pct: 99.9, value: 9990, beyond: 10},
	}
	for _, c := range cases {
		got := tail(seq(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("tail of 1..%d = %+v, want p%g = %g with %d beyond", c.n, got, c.pct, c.value, c.beyond)
		}
	}
	if got := tail(nil); got != (tailStat{}) {
		t.Errorf("tail of nothing = %+v, want zero", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		fn    string
		layer string
		ok    bool
	}{
		{"emucheck/internal/sim.(*Simulator).Step", "sim", true},
		{"emucheck/internal/firewall.(*Firewall).After.func1", "firewall", true},
		{"emucheck.(*Cluster).Submit", "emucheck", true},
		{"main.(*world).app.func1", "perfbench", true},
		{"emucheck/perfbench.seq", "perfbench", true}, // package main under go test
		{"emucheck/internal/sched.heapify[go.shape.*emucheck/internal/sched.Job]", "sched", true},
		{"runtime.mallocgc", "", false},
		{"internal/runtime/maps.(*Map).PutSlot", "", false},
		{"sort.Slice", "", false},
	}
	for _, c := range cases {
		layer, ok := layerOf(packageOf(c.fn))
		if layer != c.layer || ok != c.ok {
			t.Errorf("layerOf(packageOf(%q)) = %q, %v; want %q, %v", c.fn, layer, ok, c.layer, c.ok)
		}
	}
}

func TestByLayerChargesNearestProgramFrame(t *testing.T) {
	p := &profile{
		types: []string{"samples", "cpu"},
		samples: []profSample{
			{stack: []string{"runtime.mallocgc", "runtime.newobject", "emucheck/internal/firewall.(*Firewall).After", "emucheck/internal/guest.(*Kernel).Usleep"}, values: []int64{1, 50}},
			{stack: []string{"emucheck/internal/guest.(*Kernel).Usleep", "main.tick"}, values: []int64{1, 7}},
			{stack: []string{"internal/runtime/maps.(*Map).PutSlot", "main.tick"}, values: []int64{1, 2}},
			{stack: []string{"runtime.gcBgMarkWorker", "runtime.goexit"}, values: []int64{1, 30}},
			{stack: []string{"runtime.memmove"}, values: []int64{1}}, // short sample: skipped
		},
	}
	got := byLayer(p, p.column("cpu"))
	want := map[string]int64{"firewall": 50, "guest": 7, "perfbench": 2, "runtime": 30}
	if len(got) != len(want) {
		t.Fatalf("byLayer = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("byLayer[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	if got := byLayer(p, p.column("nope")); len(got) != 0 {
		t.Errorf("missing column gave %v", got)
	}
}

//go:noinline
func allocSink(n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, make([]byte, 64))
	}
	return out
}

var sink [][]byte

// TestParseRealAllocProfile decodes a profile runtime/pprof wrote and
// finds the allocations this test made charged to this package.
func TestParseRealAllocProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	runtime.GC()
	before, err := allocProfile()
	if err != nil {
		t.Fatal(err)
	}
	sink = allocSink(2000)
	runtime.GC()
	after, err := allocProfile()
	if err != nil {
		t.Fatal(err)
	}
	col := after.column("alloc_objects")
	if col < 0 {
		t.Fatalf("no alloc_objects column in %v", after.types)
	}
	delta := diffLayers(byLayer(after, col), byLayer(before, before.column("alloc_objects")))
	if delta["perfbench"] < 2000 {
		t.Errorf("perfbench charged %d objects, want at least 2000 (all: %v)", delta["perfbench"], delta)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	// Field 1, length 5, but only one byte follows.
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("truncated message parsed")
	}
}

func TestDigestHelper(t *testing.T) {
	a, b := newDigest(), newDigest()
	for _, d := range []*digest{a, b} {
		d.str("t00")
		d.int(42)
	}
	if a.sum() != b.sum() {
		t.Error("equal inputs digest differently")
	}
	c := newDigest()
	c.str("t0")
	c.str("042")
	if c.sum() == a.sum() {
		t.Error("length-prefixing failed to separate fields")
	}
}

// TestDigestStableAcrossPasses runs the fanout workload untraced,
// again untraced, and traced: the simulated outcome must not move,
// whether the hook wrappers time it or the scheduler is instrumented.
func TestDigestStableAcrossPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three passes of a workload")
	}
	wl := findWorkload("fanout")
	var digests []uint64
	for _, traced := range []bool{false, false, true} {
		p, err := runPass(wl, 7, traced)
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 {
			t.Fatalf("traced=%v: %d failures: %v", traced, p.failed, p.failures)
		}
		digests = append(digests, p.digest)
	}
	if digests[0] != digests[1] || digests[0] != digests[2] {
		t.Errorf("digests differ: %016x", digests)
	}
}
