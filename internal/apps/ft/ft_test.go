package ft

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/mpi"
)

func TestFFTInverseRecoversInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		a := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			orig[i] = a[i]
		}
		fft(a, false)
		fft(a, true)
		for i := range a {
			if d := a[i] - orig[i]; math.Hypot(real(d), imag(d)) > 1e-10 {
				t.Fatalf("n=%d: fft inverse mismatch at %d: %v vs %v", n, i, a[i], orig[i])
			}
		}
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/n) sum |X|^2 for the unnormalised forward transform.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 16
		a := make([]complex128, n)
		var before float64
		for i := range a {
			a[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			before += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		}
		fft(a, false)
		var after float64
		for i := range a {
			after += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
		}
		return math.Abs(after/float64(n)-before) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFFTKnownTransform(t *testing.T) {
	// The DFT of an impulse is flat ones.
	a := []complex128{1, 0, 0, 0}
	fft(a, false)
	for i, v := range a {
		if math.Abs(real(v)-1) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
			t.Fatalf("impulse transform wrong at %d: %v", i, v)
		}
	}
}

func TestFFTNonPowerOfTwoFaults(t *testing.T) {
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("non-power-of-two fft should fault")
		} else if _, ok := p.(mpi.SegFault); !ok {
			t.Fatalf("want SegFault, got %T", p)
		}
	}()
	fft(make([]complex128, 3), false)
}

func TestWaveSqWrapAround(t *testing.T) {
	if waveSq(0, 16) != 0 {
		t.Error("k=0")
	}
	if waveSq(1, 16) != 1 {
		t.Error("k=1")
	}
	if waveSq(15, 16) != 1 { // wraps to -1
		t.Error("k=15 should wrap to -1")
	}
	if waveSq(8, 16) != 64 { // Nyquist
		t.Error("k=8")
	}
}

func TestRoundSig(t *testing.T) {
	if got := apps.RoundSig(123.456789, 4); got != 123.5 {
		t.Errorf("roundSig = %v", got)
	}
	if got := apps.RoundSig(-0.00123456, 3); got != -0.00123 {
		t.Errorf("roundSig negative = %v", got)
	}
	if apps.RoundSig(0, 5) != 0 {
		t.Errorf("apps.RoundSig(0)")
	}
	if !math.IsNaN(apps.RoundSig(math.NaN(), 3)) {
		t.Errorf("apps.RoundSig(NaN) should stay NaN")
	}
}

func TestFTCleanRunAndDeterminism(t *testing.T) {
	app := New()
	cfg := apps.Config{Ranks: 8, Scale: 16, Iters: 2, Seed: 77}
	run := func() mpi.RunResult {
		return mpi.Run(mpi.RunOptions{NumRanks: cfg.Ranks, Seed: cfg.Seed, Timeout: 20 * time.Second},
			func(r *mpi.Rank) error { return app.Main(r, cfg) })
	}
	r1, r2 := run(), run()
	if err := r1.FirstError(); err != nil {
		t.Fatalf("clean FT run failed: %v", err)
	}
	v1, v2 := r1.Ranks[0].Values, r2.Ranks[0].Values
	if len(v1) != 3 {
		t.Fatalf("root should report norm + checksum pair, got %v", v1)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("FT output not deterministic: %v vs %v", v1, v2)
		}
	}
	if v1[0] <= 0 {
		t.Fatalf("field norm should be positive: %v", v1)
	}
}

func TestFTCorruptedBlockSizeTruncates(t *testing.T) {
	// A corrupted transpose block size on one rank must surface as an MPI
	// truncation error (the paper's FT MPI_ERR signature), not a hang.
	app := New()
	cfg := apps.Config{Ranks: 4, Scale: 16, Iters: 1, Seed: 3}
	hook := &bcastCorruptor{param: 2, factor: 2} // double blockElems on rank 1
	res := mpi.Run(mpi.RunOptions{NumRanks: cfg.Ranks, Seed: cfg.Seed, Hook: hook, Timeout: 20 * time.Second},
		func(r *mpi.Rank) error { return app.Main(r, cfg) })
	if res.Deadlock || res.TimedOut {
		t.Fatalf("corrupted block size must not hang")
	}
	if res.FirstError() == nil {
		t.Fatalf("corrupted block size should produce an error")
	}
}

// bcastCorruptor multiplies one broadcast parameter on rank 1 after the
// bcast completes (simulating the corrupted value the rank now trusts).
type bcastCorruptor struct {
	mpi.NopHook
	param  int
	factor int64
}

func (h *bcastCorruptor) AfterCollective(c *mpi.CollectiveCall) {
	// After the bcast has delivered: the corrupted value is what the rank
	// trusts from here on.
	if c.Type == mpi.CollBcast && c.Rank == 1 && c.Invocation == 0 && c.Args.Send.Len() >= (h.param+1)*8 {
		v := c.Args.Send.Int64(h.param)
		c.Args.Send.SetInt64(h.param, v*h.factor)
	}
}
