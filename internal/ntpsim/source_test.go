package ntpsim

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand: the constant-time source must yield the
// stream of rand.NewSource draw for draw, inside the precomputed window
// and past it, for the seeds whose reduction is special-cased and for
// a few thousand arbitrary ones.
func TestSourceMatchesMathRand(t *testing.T) {
	const perSeed = 12 // past the window, so the fallback is checked too
	seeds := []int64{
		0, 1, -1, lcgMod, -lcgMod, 2 * lcgMod, lcgMod + 1, 89482311,
		math.MaxInt64, math.MinInt64,
	}
	gen := rand.New(rand.NewSource(20091))
	for i := 0; i < 4000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	var s source
	for _, seed := range seeds {
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= perSeed; k++ {
			if got, w := s.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d draw %d: %#x, rand.NewSource gives %#x", seed, k, got, w)
			}
		}
	}
}
