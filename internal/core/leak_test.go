package core

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/lu"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
)

func TestGoroutineLeakAcrossInjectedRuns(t *testing.T) {
	app := lu.New()
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	cfg.Scale = 32
	opts := DefaultOptions()
	opts.RunTimeout = 10 * time.Second
	e := New(app, cfg, opts)
	if _, err := e.Profile(); err != nil {
		t.Fatal(err)
	}
	points, _ := e.Points()
	base := runtime.NumGoroutine()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < 400; i++ {
		rng := newRand(int64(i))
		p := points[i%len(points)]
		f := fault.RandomFault(rng, p.Rank, p.Site, p.Invocation, p.Type)
		e.RunOnce(f)
	}
	time.Sleep(200 * time.Millisecond)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	after := runtime.NumGoroutine()
	t.Logf("goroutines: base=%d after=%d; heap: %d -> %d MB", base, after, m0.HeapAlloc>>20, m1.HeapAlloc>>20)
	if after > base+20 {
		t.Fatalf("goroutine leak: %d -> %d", base, after)
	}
}

// TestGoroutineLeakAdaptiveEarlySettle: when the settling rule fires while
// sibling trial workers of the same wave are still mid-run, their results
// are discarded — the workers themselves must still drain. A campaign with
// wide intra-point parallelism and aggressive early settling must leave no
// goroutines behind.
func TestGoroutineLeakAdaptiveEarlySettle(t *testing.T) {
	app := lu.New()
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	cfg.Scale = 32
	opts := DefaultOptions()
	opts.TrialsPerPoint = 64 // plenty of headroom for the rule to cut into
	opts.Adaptive.Enabled = true
	opts.Parallelism = 16 // waves much wider than the typical stopping index
	opts.ML.Pruning = false
	opts.RunTimeout = 10 * time.Second
	e := New(app, cfg, opts)
	if _, err := e.Profile(); err != nil {
		t.Fatal(err)
	}
	points, _ := e.Points()
	if len(points) == 0 {
		t.Fatal("no injection points")
	}
	base := runtime.NumGoroutine()
	settled := 0
	for i, p := range points {
		trials, err := e.runTrials(context.Background(), e.pointSeq(p, i, nil), nil, opts.TrialsPerPoint, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(trials) < opts.TrialsPerPoint {
			settled++
		}
	}
	if settled == 0 {
		t.Fatal("no point settled early; the discard path was never exercised")
	}
	time.Sleep(200 * time.Millisecond)
	runtime.GC()
	after := runtime.NumGoroutine()
	t.Logf("goroutines: base=%d after=%d (%d/%d points settled early)", base, after, settled, len(points))
	if after > base+20 {
		t.Fatalf("goroutine leak after early settles: %d -> %d", base, after)
	}
}

// TestPooledBufferAliasingAcrossConcurrentRuns drives many injected runs
// of a pooled engine from concurrent workers — the supervisor's memory
// shape, where several simulated worlds recycle the same arena at once —
// and requires every (point, trial) outcome to match a serial unpooled
// engine's. Any aliasing of pooled memory between in-flight runs (a slab
// recycled while another world still reads it, a rank shell bound twice)
// corrupts some trial's data and flips its classification.
func TestPooledBufferAliasingAcrossConcurrentRuns(t *testing.T) {
	app := lu.New()
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	cfg.Scale = 32

	build := func(disablePooling bool) (*Engine, []Point) {
		opts := DefaultOptions()
		opts.RunTimeout = 10 * time.Second
		e := New(app, cfg, opts)
		e.unpooled = disablePooling
		if _, err := e.Profile(); err != nil {
			t.Fatal(err)
		}
		points, err := e.Points()
		if err != nil {
			t.Fatal(err)
		}
		return e, points
	}

	trials := 96
	if raceEnabled || testing.Short() {
		trials = 32
	}

	// Reference: serial, unpooled.
	ref, points := build(true)
	want := make([]classify.Outcome, trials)
	for i := 0; i < trials; i++ {
		p := points[i%len(points)]
		f := fault.RandomFault(newRand(int64(i)), p.Rank, p.Site, p.Invocation, p.Type)
		want[i], _ = ref.RunOnce(f)
	}

	// Measured: 8 concurrent workers over one pooled engine.
	pooled, points2 := build(false)
	if len(points2) != len(points) {
		t.Fatalf("pooled engine enumerated %d points; unpooled %d", len(points2), len(points))
	}
	got := make([]classify.Outcome, trials)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < trials; i += workers {
				p := points2[i%len(points2)]
				f := fault.RandomFault(newRand(int64(i)), p.Rank, p.Site, p.Invocation, p.Type)
				got[i], _ = pooled.RunOnce(f)
			}
		}(w)
	}
	wg.Wait()

	for i := range want {
		if got[i] != want[i] {
			t.Errorf("trial %d: pooled concurrent outcome %v != serial unpooled %v (cross-run aliasing of pooled memory)",
				i, got[i], want[i])
		}
	}
}

// TestSupervisorPaperScalePooled runs a supervised adaptive campaign at
// paper-scale rank count with pooling on and concurrent workers — the
// configuration the arena exists for — and checks it against the
// one-worker unpooled campaign. Under -race this doubles as the data-race proof for
// the shell/slab pools; the sizes shrink there to keep it affordable.
func TestSupervisorPaperScalePooled(t *testing.T) {
	app := lu.New()
	cfg := app.DefaultConfig()
	cfg.Ranks = 32
	cfg.Scale = 48
	opts := DefaultOptions()
	opts.TrialsPerPoint = 32 // enough headroom for the settling rule to fire
	opts.ML.Pruning = false
	opts.Adaptive.Enabled = true
	opts.RunTimeout = 30 * time.Second
	if raceEnabled || testing.Short() {
		cfg.Ranks = 16
		cfg.Scale = 32
	}

	unpooled := New(app, cfg, opts)
	unpooled.unpooled = true
	serial, err := unpooled.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}

	sup, err := NewSupervisor(New(app, cfg, opts), SupervisorOptions{Workers: 4}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sup.Cancelled || len(sup.Quarantined) != 0 {
		t.Fatalf("unexpected supervision events: %+v", sup)
	}
	settled := 0
	for _, pr := range sup.Measured {
		if len(pr.Trials) < opts.TrialsPerPoint {
			settled++
		}
	}
	if settled == 0 {
		t.Fatal("campaign settled no points early; the pooled early-settle path is untested")
	}
	if !bytes.Equal(campaignBytes(t, serial), campaignBytes(t, sup.CampaignResult)) {
		t.Fatalf("pooled supervised campaign diverged from unpooled serial campaign:\nserial: %s\nsupervised: %s",
			serial.Summary(), sup.Summary())
	}
}
