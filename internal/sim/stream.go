package sim

import (
	"math"
	"math/bits"
)

// fmix is the SplitMix64 finalizer.
func fmix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is one component's keyed, counter-based source of random
// draws: draw n is a pure function of (seed, key, n), so a component
// draws the same values however many draws other components make, and
// in whatever order.
type Stream struct {
	base uint64 // Mix64(seed, hash of the key)
	n    uint64 // draws taken
}

// NewStream returns the stream named by key under seed. The key parts
// are hashed (FNV-1a, each part followed by a separator byte) without
// allocating.
func NewStream(seed int64, key ...string) Stream {
	h := uint64(14695981039346656037)
	for _, k := range key {
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	return Stream{base: Mix64(seed, int64(h))}
}

// Stream returns the stream named by key under the simulator's seed.
func (s *Simulator) Stream(key ...string) Stream { return NewStream(s.seed, key...) }

// Uint64 returns the next draw: one SplitMix64 step at the counter.
func (r *Stream) Uint64() uint64 {
	r.n++
	return fmix(r.base + r.n*0x9e3779b97f4a7c15)
}

// Float64 returns a uniform draw in [0, 1).
func (r *Stream) Float64() float64 { return float64(r.Uint64()>>11) * 0x1p-53 }

// Int63n returns a uniform draw in [0, n) for n > 0, by Lemire's
// multiply-shift with rejection (no modulo bias).
func (r *Stream) Int63n(n int64) int64 {
	hi, lo := bits.Mul64(r.Uint64(), uint64(n))
	if lo < uint64(n) {
		for thresh := -uint64(n) % uint64(n); lo < thresh; {
			hi, lo = bits.Mul64(r.Uint64(), uint64(n))
		}
	}
	return int64(hi)
}

// Jitter returns a uniform duration in [0, max), or 0 if max <= 0.
func (r *Stream) Jitter(max Time) Time {
	if max <= 0 {
		return 0
	}
	return Time(r.Int63n(int64(max)))
}

// Uniform returns a uniform duration in [lo, hi), or lo if hi <= lo.
func (r *Stream) Uniform(lo, hi Time) Time { return lo + r.Jitter(hi-lo) }

// Normal returns a normally distributed duration with the given mean and
// standard deviation, truncated at zero.
func (r *Stream) Normal(mean, stddev Time) Time {
	return max(0, Time(float64(mean)+r.normFloat64()*float64(stddev)))
}

// Ziggurat tables for the standard normal (Marsaglia & Tsang 2000, the
// method math/rand's NormFloat64 uses): 128 layers of area zigV, the
// base layer's edge at zigR. A draw whose 31-bit magnitude is below
// zigK[i] lies inside layer i's rectangle and is accepted at once.
const zigR, zigV = 3.442619855899, 9.91256303526217e-3

var (
	zigK       [128]uint32
	zigW, zigF [128]float64
)

func init() {
	const m1 = 1 << 31
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-0.5*dn*dn)
	zigK[0], zigW[0], zigF[0] = uint32(dn/q*m1), q/m1, 1
	zigW[127], zigF[127] = dn/m1, math.Exp(-0.5*dn*dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		zigK[i+1], zigF[i], zigW[i] = uint32(dn/tn*m1), math.Exp(-0.5*dn*dn), dn/m1
		tn = dn
	}
}

// normFloat64 returns a standard normal draw. One draw supplies the
// signed 32-bit magnitude and, from separate bits, the layer.
func (r *Stream) normFloat64() float64 {
	for {
		u := r.Uint64()
		j, i := int32(u), (u>>32)&0x7f
		x := float64(j) * zigW[i]
		if sign := j >> 31; uint32((j^sign)-sign) < zigK[i] { // branch-free |j|
			return x
		}
		if i == 0 { // the tail beyond zigR (Marsaglia 1964)
			for {
				x = -math.Log(r.Float64()) / zigR
				if y := -math.Log(r.Float64()); y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigR + x
			}
			return -zigR - x
		}
		if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return x
		}
	}
}
