package mpi

import (
	"math"
	"math/rand"
	"testing"
)

// TestFibSourceMatchesStdlib pins the contract everything downstream
// relies on: a fibSource-backed Rand is bit-identical to
// rand.New(rand.NewSource(seed)) — across seeds, draw kinds, and repeat
// reseeding (both the reconstruction path and the cached path).
func TestFibSourceMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, 141421, 1 << 40, -985113245} {
		var src fibSource
		got := rand.New(&src)
		for pass := 0; pass < 2; pass++ { // pass 1 exercises the cache
			got.Seed(seed)
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d pass %d draw %d: Uint64 %d != %d", seed, pass, i, g, w)
				}
			}
			for i := 0; i < 100; i++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d pass %d: Int63 %d != %d", seed, pass, g, w)
				}
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d pass %d: Float64 %v != %v", seed, pass, g, w)
				}
				if g, w := got.Intn(1000), want.Intn(1000); g != w {
					t.Fatalf("seed %d pass %d: Intn %d != %d", seed, pass, g, w)
				}
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d pass %d: NormFloat64 %v != %v", seed, pass, g, w)
				}
			}
		}
	}
}

// NewRand's generator is rand.New(rand.NewSource(seed)) draw for draw: over
// 10,000 seeds, among them math/rand's special cases (0, negatives, ±int32max
// and their neighbours, the int64 extremes), 2,000 draws each through Int63,
// Intn, Float64 and Shuffle.
func TestNewRandMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, int32max, -int32max, int32max + 1, -int32max - 1,
		int32max - 1, 2 * int32max, math.MaxInt64, math.MinInt64, 1 << 40, -985113245}
	n := 10000
	if raceEnabled {
		n = 500
	}
	meta := rand.New(rand.NewSource(99))
	for len(seeds) < n {
		seeds = append(seeds, meta.Int63()-meta.Int63(), int64(meta.Int31n(1<<20))-1<<19)
	}
	const k = 500
	var gotPerm, wantPerm [k]int
	for _, seed := range seeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < k; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, w)
			}
			if g, w := got.Intn(i+1), want.Intn(i+1); g != w {
				t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
			}
			gotPerm[i], wantPerm[i] = i, i
		}
		got.Shuffle(k, func(i, j int) { gotPerm[i], gotPerm[j] = gotPerm[j], gotPerm[i] })
		want.Shuffle(k, func(i, j int) { wantPerm[i], wantPerm[j] = wantPerm[j], wantPerm[i] })
		if gotPerm != wantPerm {
			t.Fatalf("seed %d: Shuffle differs", seed)
		}
	}
}

// TestFibSourceReseedRestartsStream pins that reseeding mid-stream
// restarts from the exact beginning, the property bind depends on when
// recycling rank shells across runs.
func TestFibSourceReseedRestartsStream(t *testing.T) {
	var src fibSource
	r := rand.New(&src)
	r.Seed(7)
	first := make([]uint64, 700)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if g := r.Uint64(); g != first[i] {
			t.Fatalf("draw %d after reseed: %d != %d", i, g, first[i])
		}
	}
}

func BenchmarkFibSourceReseed(b *testing.B) {
	var src fibSource
	src.Seed(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Seed(1)
	}
}

func BenchmarkStdlibReseed(b *testing.B) {
	src := rand.NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Seed(1)
	}
}
