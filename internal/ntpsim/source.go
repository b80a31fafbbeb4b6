package ntpsim

import "math/rand"

// source is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed) but reseeds in constant time. Go's
// rngSource.Seed (math/rand/rng.go) fills a 607-word register,
//
//	vec[i] = (x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i]) ^ rngCooked[i]
//
// from the seeding LCG x[n] = 48271^n · x[0] mod (2^31-1), and draw k
// (1-based, k <= 273) of the fresh source is vec[334-k] + vec[607-k].
// ntpsim reads two or three draws per seed, so the first window draws
// are computed from precomputed LCG jumps and just the four register
// words they add; later draws come from a real math/rand source
// advanced to the same point. Seed must be called before the first draw.
type source struct {
	seed int64
	x0   uint64        // x[0]: the seed as rngSource.Seed reduces it
	k    int           // draws taken since Seed
	fb   rand.Source64 // draws past the window; made once, then reseeded
}

const (
	lcgMod = 1<<31 - 1
	lcgMul = 48271
	window = 8
)

// cookedFeed and cookedTap are rngCooked[326:334] and rngCooked[599:607]
// from math/rand (rng.go): the constants of the register words the
// first window draws read. Go's compatibility promise keeps seeded
// math/rand streams, and so these values, fixed.
var (
	cookedFeed = [window]int64{
		581945337509520675, 3648778920718647903, -4799698790548231394, -7602572252857820065,
		220828013409515943, -1072987336855386047, 4287360518296753003, -4633371852008891965,
	}
	cookedTap = [window]int64{
		-758328221503023383, -1894351639983151068, -307900319840287220, -6278469401177312761,
		-2171292963361310674, 8382142935188824023, 9103922860780351547, 4152330101494654406,
	}
)

// regWord is one register word vec[i]: the LCG jump 48271^(21+3i) that
// takes x[0] to its first seeding step, and rngCooked[i].
type regWord struct{ jump, cooked uint64 }

// draws[k-1] holds the two register words draw k adds.
var draws [window][2]regWord

func init() {
	word := func(i int) regWord {
		jump := uint64(1)
		for n := 0; n < 21+3*i; n++ {
			jump = jump * lcgMul % lcgMod
		}
		if i < 334 {
			return regWord{jump, uint64(cookedFeed[i-(334-window)])}
		}
		return regWord{jump, uint64(cookedTap[i-(607-window)])}
	}
	for k := 1; k <= window; k++ {
		draws[k-1] = [2]regWord{word(334 - k), word(607 - k)}
	}
}

// value computes the register word for the seeding state x0.
func (w regWord) value(x0 uint64) uint64 {
	a := w.jump * x0 % lcgMod
	b := a * lcgMul % lcgMod
	c := b * lcgMul % lcgMod
	return a<<40 ^ b<<20 ^ c ^ w.cooked
}

func (s *source) Seed(seed int64) {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	s.seed, s.x0, s.k = seed, uint64(x), 0
}

func (s *source) Uint64() uint64 {
	s.k++
	if s.k <= window {
		d := &draws[s.k-1]
		return d[0].value(s.x0) + d[1].value(s.x0)
	}
	if s.k == window+1 {
		if s.fb == nil {
			s.fb = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.fb.Seed(s.seed)
		}
		for i := 0; i < window; i++ {
			s.fb.Uint64()
		}
	}
	return s.fb.Uint64()
}

func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
