package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile
// among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error from pushing an exact rank up one:
	// 99.9% of 10000 must be 9990, not 9991.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail is reported at, lowest
// first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailMinBeyond is how many samples must lie beyond a percentile for
// it to count as measured rather than extrapolated.
const tailMinBeyond = 10

// tailStat is a tail latency: the percentile it was taken at, its
// value, and the sample count behind it.
type tailStat struct {
	Pct     float64
	Value   float64
	Samples int
	Beyond  int
}

// tail picks the highest ladder percentile that has at least
// tailMinBeyond samples strictly beyond its nearest rank. With too few
// samples for even the median to qualify it falls back to the median
// and reports Beyond below tailMinBeyond, so callers can see the tail
// is unmeasured.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sortedCopy(xs)
	best := tailStat{Pct: 50, Value: percentile(s, 50), Samples: n, Beyond: n - rank(n, 50)}
	for _, p := range tailLadder {
		if beyond := n - rank(n, p); beyond >= tailMinBeyond {
			best = tailStat{Pct: p, Value: percentile(s, p), Samples: n, Beyond: beyond}
		}
	}
	return best
}

// digest is an FNV-64a fingerprint over simulated outcomes. Only
// simulation-domain values go in, never host timings, so two runs of
// one seed must agree exactly.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
