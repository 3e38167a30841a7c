package mpi

import (
	"fmt"
	"runtime/debug"
	"sync"
	"testing"
)

// panicText is what f panics with, "" when it returns.
func panicText(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// sliceFacts is everything an application can observe of a fresh slice:
// its length and capacity, its contents over the whole capacity, what
// indexing past the length and reslicing past the capacity panic with, and
// what appending past the capacity grows it to.
func sliceFacts(s []float64) string {
	zero := true
	for _, v := range s[:cap(s)] {
		zero = zero && v == 0
	}
	full := s[:cap(s)]
	grown := append(full, 1)
	return fmt.Sprintf("len %d cap %d zero %t index %q reslice %q grown cap %d aliases %t",
		len(s), cap(s), zero,
		panicText(func() { _ = s[len(s)] }),
		panicText(func() { _ = s[:cap(s)+1] }),
		cap(grown), cap(full) > 0 && &grown[0] == &full[0])
}

// TestStaticMatchesMake: Static's slice is make's, pooled or not and in a
// recording run, including when the backing array it reuses is larger than
// asked for and was dirtied by the run before.
func TestStaticMatchesMake(t *testing.T) {
	modes := map[string]RunOptions{
		"pooled":    {NumRanks: 2, Seed: 1},
		"unpooled":  {NumRanks: 2, Seed: 1, DisablePooling: true},
		"recording": {NumRanks: 2, Seed: 1, Record: true},
	}
	for name, opts := range modes {
		for _, size := range [][2]int{{3, 10}, {0, 10}, {10, 10}, {0, 0}} {
			n, c := size[0], size[1]
			// The run before leaves a larger array, every cell dirty.
			Run(opts, func(r *Rank) error {
				s := Static[float64](r, 100, 100)
				for i := range s {
					s[i] = 7
				}
				return nil
			})
			var got, want [2]string
			res := Run(opts, func(r *Rank) error {
				got[r.ID()] = sliceFacts(Static[float64](r, n, c))
				want[r.ID()] = sliceFacts(make([]float64, n, c))
				return nil
			})
			if err := res.FirstError(); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s Static(%d, %d) on rank %d: %s; make: %s", name, n, c, i, got[i], want[i])
				}
			}
		}
	}

	// Past the length, an application's index is a SEG_FAULT with make's text.
	for name, opts := range modes {
		faulty := func(alloc func(r *Rank) []int32) string {
			return fmt.Sprint(Run(opts, func(r *Rank) error {
				s := alloc(r)
				s[len(s)+r.ID()] = 1
				return nil
			}).FirstError())
		}
		got := faulty(func(r *Rank) []int32 { return Static[int32](r, 4, 8) })
		want := faulty(func(r *Rank) []int32 { return make([]int32, 4, 8) })
		if got != want {
			t.Errorf("%s: an index past Static's length fails %q; past make's, %q", name, got, want)
		}
	}
}

// TestStaticReusesBackingArray: a pooled run's static arrays serve the next
// run on the same shell, best fit by element type and capacity, whatever
// order the next run asks in and whichever arrays it skips; a recording run
// takes none of them. The garbage collector is held off so the shell stays
// in its pool; the race detector drops pooled shells at random, so the
// test needs it off.
func TestStaticReusesBackingArray(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := RunOptions{NumRanks: 1, Seed: 1}
	addr := func(s []float64) *float64 { return &s[:1][0] }
	var big, small *float64
	var keys *int32
	Run(opts, func(r *Rank) error {
		big, small = addr(Static[float64](r, 100, 100)), addr(Static[float64](r, 10, 10))
		keys = &Static[int32](r, 10, 10)[0]
		return nil
	})
	check := func(what string, opts RunOptions, fn func(r *Rank) error) {
		t.Helper()
		if err := Run(opts, fn).FirstError(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	check("reversed order", opts, func(r *Rank) error {
		s, b := addr(Static[float64](r, 8, 10)), addr(Static[float64](r, 100, 100))
		if s != small || b != big {
			return fmt.Errorf("the arrays moved: small %t, big %t", s == small, b == big)
		}
		if k := &Static[int32](r, 1, 5)[0]; k != keys {
			return fmt.Errorf("the int32 array moved")
		}
		return nil
	})
	check("skipping the first", opts, func(r *Rank) error {
		if s := addr(Static[float64](r, 10, 10)); s != small {
			return fmt.Errorf("a small request took the big array")
		}
		return nil
	})
	check("recording", RunOptions{NumRanks: 1, Seed: 1, Record: true}, func(r *Rank) error {
		if s := addr(Static[float64](r, 10, 10)); s == small || s == big {
			return fmt.Errorf("a recording run took the shell's array")
		}
		return nil
	})
	check("after recording", opts, func(r *Rank) error {
		if s := addr(Static[float64](r, 10, 10)); s != small {
			return fmt.Errorf("the small array moved")
		}
		return nil
	})
}

// TestStaticRunsInFlightNeverShare: runs in flight at once never hand out
// one backing array twice. Each rank fills its arrays with its run's mark,
// communicates, and checks the mark is still there; under -race a shared
// array is also a reported race.
func TestStaticRunsInFlightNeverShare(t *testing.T) {
	const goroutines, runs, ranks = 4, 20, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runs)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < runs; k++ {
				mark := int64(g*runs+k)<<8 + 1
				res := Run(RunOptions{NumRanks: ranks, Seed: 1}, func(r *Rank) error {
					me := mark + int64(r.ID())
					a, b := Static[int64](r, 256, 256), Static[int64](r, 16, 64)
					for _, s := range [][]int64{a, b[:cap(b)]} {
						for i := range s {
							if s[i] != 0 {
								return fmt.Errorf("rank %d: a fresh static array holds %d", r.ID(), s[i])
							}
							s[i] = me
						}
					}
					for i := 0; i < 4; i++ {
						r.Barrier(CommWorld)
					}
					for _, s := range [][]int64{a, b[:cap(b)]} {
						for i := range s {
							if s[i] != me {
								return fmt.Errorf("rank %d: its static array holds %d, not its mark %d", r.ID(), s[i], me)
							}
						}
					}
					return nil
				})
				if err := res.FirstError(); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
