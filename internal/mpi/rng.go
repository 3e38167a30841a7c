package mpi

import (
	"math/rand"
	"sync"
)

// Per-rank random sources dominated campaign trial time: math/rand's
// additive-lagged-Fibonacci source pays ~2000 seedrand iterations per
// Seed call, and bind reseeds every rank on every run — for a 32-rank
// paper-scale trial that was ~0.4 ms of pure seeding, a third of a forked
// trial's budget. Within a campaign every run reseeds with the same value,
// so fibSource caches the freshly-seeded state vector and makes repeat
// Seed calls a 4.8 KB copy instead.
//
// fibSource reproduces math/rand's generator exactly — same recurrence
// (vec[i] = vec[i-273] + vec[i-607], values returned as written) — and
// recovers the freshly-seeded vector through the public API alone: each
// Uint64 draw returns exactly the sum it stores, so 607 draws from a
// stdlib source observe one full window of the state evolution, and the
// recurrence can be solved backwards for the pre-draw vector. Every
// stream is therefore bit-identical to rand.New(rand.NewSource(seed)),
// keeping recorded goldens and documented experiment numbers valid.

const (
	rngLen  = 607 // lag length of the generator
	rngTap  = 273 // short lag
	rngFeed = rngLen - rngTap
)

// fibSource is a rand.Source64 with cheap repeat seeding. The zero value
// must be seeded before use.
type fibSource struct {
	vec       [rngLen]int64
	tap, feed int

	initSeed int64          // seed init corresponds to (valid when init != nil)
	init     *[rngLen]int64 // cached freshly-seeded vector
}

// seedCache shares freshly-seeded vectors across all sources in the
// process: rank shells are pooled in sync.Pools whose contents a GC cycle
// may drop, and without sharing every rebuilt shell would pay the full
// reconstruction again. Entries are immutable once stored (sources copy
// out of them, never write through s.init).
var seedCache = struct {
	sync.Mutex
	m map[int64]*[rngLen]int64
}{m: map[int64]*[rngLen]int64{}}

// seedCacheCap bounds the cache (~5 MB of vectors); on overflow a random
// entry is evicted, which is harmless — eviction only costs the next
// reconstruction.
const seedCacheCap = 1024

// Seed resets the source to the exact state rand.NewSource(seed) starts
// in. The first call for a given seed anywhere in the process
// reconstructs that state from a stdlib source; repeats restore it from
// the per-source or global cache.
func (s *fibSource) Seed(seed int64) {
	if s.init == nil || s.initSeed != seed {
		seedCache.Lock()
		v := seedCache.m[seed]
		if v == nil {
			v = seededVec(seed)
			if len(seedCache.m) >= seedCacheCap {
				for k := range seedCache.m {
					delete(seedCache.m, k)
					break
				}
			}
			seedCache.m[seed] = v
		}
		seedCache.Unlock()
		s.init = v
		s.initSeed = seed
	}
	s.vec = *s.init
	s.tap, s.feed = 0, rngFeed
}

// Uint64 mirrors math/rand's rngSource.Uint64: the full 64-bit sum is
// both stored and returned.
func (s *fibSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 mirrors rngSource.Int63: the sum with the sign bit cleared.
func (s *fibSource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// seededVec recovers the freshly-seeded state vector of
// rand.NewSource(seed) from one window of its output.
//
// Draw k (0-based) reads slots feed_k = (333-k) mod 607 and
// tap_k = (606-k) mod 607 and writes its result into feed_k. Within the
// first 607 draws each slot is written exactly once, at draw
// (333 - slot) mod 607, so a tap read at draw k sees the original vector
// for k < 273 and the draw-(k-273) output afterwards. That makes the
// system triangular: draws 273..606 yield original slots directly, and
// draws 0..272 then yield the rest by subtraction (int64 addition wraps,
// so subtraction is its exact inverse).
func seededVec(seed int64) *[rngLen]int64 {
	src, ok := rand.NewSource(seed).(rand.Source64)
	if !ok {
		// Unreachable with the stdlib, whose source implements Source64;
		// fall back to an equivalent seeding through a temporary Rand.
		panic("mpi: rand.NewSource does not implement Source64")
	}
	var obs [rngLen]int64
	for k := range obs {
		obs[k] = int64(src.Uint64())
	}
	v := new([rngLen]int64)
	for k := rngTap; k < rngLen; k++ {
		v[(rngFeed-1-k+rngLen)%rngLen] = obs[k] - obs[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		v[rngFeed-1-k] = obs[k] - v[rngLen-1-k]
	}
	return v
}

// NewRand returns a generator with the exact stream of
// rand.New(rand.NewSource(seed)) that costs O(draws) to seed instead of
// O(607): a trial that draws twice from a fresh generator reads four state
// words, where the stdlib seeds all 607 with 1,841 steps of its
// multiplicative congruential seedrand.
func NewRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

// lazySource is a fibSource seeded for a fresh value each time: it computes
// each state word as the first window of draws reaches it, where Seed's
// cache would pay a full seeding per fresh seed. The per-rank sources stay
// plain fibSources: they reseed with the same value every run and draw a
// hundred values or more, for which the cached 4.8 KB copy is several times
// cheaper than computing the words (EXPERIMENTS.md, "Synchronizing
// collectives meet in shared memory"), and they pay no first-window check.
type lazySource struct {
	fibSource
	lazy int    // draws left in the first window
	x0   uint64 // the normalised seed
}

// Seed resets the source to rand.NewSource(seed)'s starting state, with
// math/rand's normalisation of the seed, and computes no word.
func (s *lazySource) Seed(seed int64) {
	lazyTables.once.Do(initLazyTables)
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.lazy = 0, rngFeed, rngLen
}

// Uint64 draws through fibSource once the words the draw reads hold their
// seeded values. As seededVec sets out, draw k of the first window reads
// feed slot (333-k) mod 607, which no draw has written yet, and tap slot
// 606-k, which holds its seeded value for k < 273 and draw k-273's sum
// afterwards.
func (s *lazySource) Uint64() uint64 {
	if s.lazy > 0 {
		k := rngLen - s.lazy
		if k < rngTap {
			s.vec[rngLen-1-k] = seededWord(s.x0, rngLen-1-k)
		}
		f := (rngFeed - 1 - k + rngLen) % rngLen
		s.vec[f] = seededWord(s.x0, f)
		s.lazy--
	}
	return s.fibSource.Uint64()
}

// Int63 mirrors rngSource.Int63.
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

const int32max = 1<<31 - 1

// lazyTables holds what seededWord needs: rand.NewSource(seed) fills word i
// from steps 21+3i, 22+3i and 23+3i of seedrand, which is Schrage's exact
// x·48271 mod (2³¹−1), so step k is x₀·48271ᵏ — three multiplications by
// precomputed powers, XORed with the word's private rngCooked constant,
// which is recovered from one stdlib-seeded vector.
var lazyTables struct {
	once   sync.Once
	pow    [24 + 3*rngLen]uint64 // 48271ᵏ mod int32max
	cooked [rngLen]int64
}

func initLazyTables() {
	t := &lazyTables
	t.pow[0] = 1
	for k := 1; k < len(t.pow); k++ {
		t.pow[k] = t.pow[k-1] * 48271 % int32max
	}
	v := seededVec(1)
	for j := range t.cooked {
		t.cooked[j] = v[j] ^ rawWord(1, j)
	}
}

// seededWord is word i of the state rand.NewSource seeds from normalised
// seed x0.
func seededWord(x0 uint64, i int) int64 {
	return rawWord(x0, i) ^ lazyTables.cooked[i]
}

// rawWord is word i before the rngCooked XOR: the three seedrand steps that
// fill it, shifted into place as rngSource.Seed does.
func rawWord(x0 uint64, i int) int64 {
	p := lazyTables.pow[21+3*i:]
	return int64(x0*p[0]%int32max)<<40 ^ int64(x0*p[1]%int32max)<<20 ^ int64(x0*p[2]%int32max)
}
