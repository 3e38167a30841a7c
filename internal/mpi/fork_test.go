package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// forkTestApp mixes collectives with ring point-to-point traffic that
// crosses collective boundaries, so fork cuts exercise both propagation
// rules and the prestock path. It is deterministic in (seed, n).
func forkTestApp(r *Rank) error {
	me, n := r.ID(), r.NumRanks()
	r.SetPhase(PhaseCompute)
	state := make([]float64, 8)
	for i := range state {
		state[i] = float64(me+1) * float64(i+1)
	}
	right, left := (me+1)%n, (me-1+n)%n
	for iter := 0; iter < 3; iter++ {
		r.Tick(100)
		// Ring shift crossing the collectives below.
		b := r.FromFloat64s(state)
		r.Send(CommWorld, right, 7, b.Bytes())
		b.Release()
		in := r.Recv(CommWorld, left, 7)
		lvals := (&Buffer{mem: in}).Float64s()
		for i := range state {
			state[i] += 0.25*lvals[i] + float64(r.Rand().Intn(3))
		}
		sum := r.AllreduceFloat64s(state, OpSum, CommWorld)
		for i := range state {
			state[i] = state[i]*0.5 + sum[i]/float64(n)
		}
		bc := r.BcastFloat64s(state[:2], iter%n, CommWorld)
		state[0] += bc[1]
		// Sends that straddle the barrier: even ranks send before it, odd
		// ranks receive after it — a fault at the barrier makes these the
		// prestocked messages.
		if me%2 == 0 && me+1 < n {
			b := r.FromFloat64s(state[:2])
			r.Send(CommWorld, me+1, 9, b.Bytes())
			b.Release()
		}
		r.Barrier(CommWorld)
		if me%2 == 1 {
			got := (&Buffer{mem: r.Recv(CommWorld, me-1, 9)}).Float64s()
			state[1] += got[0]
		}
	}
	r.Barrier(CommWorld)
	r.ReportResult(state...)
	return nil
}

// countInjector corrupts Args.Count at one (rank, site, invocation), the
// shape of fault the core engine injects.
type countInjector struct {
	NopHook
	rank  int
	site  uintptr
	inv   int
	fired bool
}

func (h *countInjector) BeforeCollective(call *CollectiveCall) {
	if call.Rank == h.rank && call.Site == h.site && call.Invocation == h.inv {
		h.fired = true
		call.Args.Count += 3
	}
}

func runDigest(res RunResult) string {
	s := fmt.Sprintf("deadlock=%v timedout=%v\n", res.Deadlock, res.TimedOut)
	for _, rr := range res.Ranks {
		errs := ""
		if rr.Err != nil {
			errs = rr.Err.Error()
		}
		s += fmt.Sprintf("rank %d err=%q values=%v\n", rr.Rank, errs, rr.Values)
	}
	return s
}

// TestForkMatchesFullReplay sweeps every collective event on every rank of
// the recorded trace as an injection target and checks the forked trial's
// outcome is identical to a full from-t=0 replay of the same trial.
func TestForkMatchesFullReplay(t *testing.T) {
	const n = 4
	const seed = int64(42)
	rec := Run(RunOptions{NumRanks: n, Seed: seed, Record: true}, forkTestApp)
	if !rec.Trace.Forkable() {
		t.Fatalf("golden trace not forkable: %s", rec.Trace.Reason())
	}
	targets := 0
	for rank := 0; rank < n; rank++ {
		for _, ev := range rec.Trace.ranks[rank].events {
			if ev.kind != evColl {
				continue
			}
			targets++
			f := rec.Trace.Fork(rank, ev.site, int(ev.inv))
			if f == nil {
				t.Fatalf("no fork for rank %d site %#x inv %d", rank, ev.site, ev.inv)
			}
			full := &countInjector{rank: rank, site: ev.site, inv: int(ev.inv)}
			fullRes := Run(RunOptions{NumRanks: n, Seed: seed, Hook: full}, forkTestApp)
			forked := &countInjector{rank: rank, site: ev.site, inv: int(ev.inv)}
			forkRes := Run(RunOptions{NumRanks: n, Seed: seed, Hook: forked, Fork: f}, forkTestApp)
			if !full.fired || !forked.fired {
				t.Fatalf("injector fired: full=%v forked=%v (rank %d site %#x inv %d)", full.fired, forked.fired, rank, ev.site, ev.inv)
			}
			want, got := runDigest(fullRes), runDigest(forkRes)
			if want != got {
				t.Fatalf("fork diverges from full replay at rank %d site %#x inv %d:\nfull:\n%s\nforked:\n%s", rank, ev.site, ev.inv, want, got)
			}
		}
	}
	if targets == 0 {
		t.Fatal("trace recorded no collective events")
	}
}

// scopeHook logs every collective the hook sees, mutating nothing.
type scopeHook struct {
	mu            sync.Mutex
	before, after []CollectiveCall
}

func (h *scopeHook) BeforeCollective(c *CollectiveCall) {
	h.mu.Lock()
	h.before = append(h.before, *c)
	h.mu.Unlock()
}

func (h *scopeHook) AfterCollective(c *CollectiveCall) {
	h.mu.Lock()
	h.after = append(h.after, *c)
	h.mu.Unlock()
}

// lateSendApp has rank 1 receive, before two broadcasts, a message rank 0
// sends only after them: a broadcast's root does not wait for its receivers.
// A fork at either broadcast on rank 1 makes the send live, so the receive
// and both broadcasts are live on rank 1.
func lateSendApp(r *Rank) error {
	v := []float64{1, 2}
	if r.ID() == 1 {
		v = r.RecvFloat64sInto(CommWorld, 0, 5, nil)
	}
	v = r.BcastFloat64s(v, 0, CommWorld)
	v = r.BcastFloat64s(v, 0, CommWorld)
	if r.ID() == 0 {
		r.SendFloat64s(CommWorld, 1, 5, v)
	}
	r.ReportResult(v...)
	return nil
}

// TestForkedHookScope sweeps every collective of two traces as fork targets
// and checks that the hook of a forked run sees only the calls its fault can
// be addressed to: the faulted rank's live collectives up to and including
// the faulted instance, the last of them carrying the fault's site and
// invocation. An unforked run's hook sees every call of every rank.
func TestForkedHookScope(t *testing.T) {
	const seed = int64(42)
	earlier := false // some fork has a live call before its faulted one
	for _, tc := range []struct {
		n   int
		app func(*Rank) error
	}{{4, forkTestApp}, {2, lateSendApp}} {
		rec := Run(RunOptions{NumRanks: tc.n, Seed: seed, Record: true}, tc.app)
		if !rec.Trace.Forkable() {
			t.Fatalf("golden trace not forkable: %s", rec.Trace.Reason())
		}
		all := &scopeHook{}
		requireClean(t, Run(RunOptions{NumRanks: tc.n, Seed: seed, Hook: all}, tc.app))
		colls := 0
		for rank := 0; rank < tc.n; rank++ {
			for _, ev := range rec.Trace.ranks[rank].events {
				if ev.kind == evColl {
					colls++
				}
			}
		}
		if len(all.before) != colls || len(all.after) != colls {
			t.Fatalf("unforked hook saw %d/%d calls, want all %d", len(all.before), len(all.after), colls)
		}

		for rank := 0; rank < tc.n; rank++ {
			events := rec.Trace.ranks[rank].events
			for pos, ev := range events {
				if ev.kind != evColl {
					continue
				}
				f := rec.Trace.Fork(rank, ev.site, int(ev.inv))
				want := 0
				for _, e := range events[f.cut[rank] : pos+1] {
					if e.kind == evColl {
						want++
					}
				}
				earlier = earlier || want > 1
				h := &scopeHook{}
				Run(RunOptions{NumRanks: tc.n, Seed: seed, Hook: h, Fork: f}, tc.app)
				where := fmt.Sprintf("%d ranks, fork at rank %d tape position %d", tc.n, rank, pos)
				if len(h.before) != want || len(h.after) != want {
					t.Fatalf("%s: hook saw %d/%d calls, want %d", where, len(h.before), len(h.after), want)
				}
				for i, c := range h.before {
					if c.Rank != rank {
						t.Fatalf("%s: hook saw rank %d", where, c.Rank)
					}
					if faulted := c.Site == ev.site && c.Invocation == int(ev.inv); faulted != (i == want-1) {
						t.Fatalf("%s: hooked call %d of %d has site %#x invocation %d; only the last may be the fault's (%#x, %d)",
							where, i+1, want, c.Site, c.Invocation, ev.site, ev.inv)
					}
				}
			}
		}
	}
	if !earlier {
		t.Fatal("no fork in the sweep has a live call before its faulted one")
	}
}

// TestForkFaultFree checks a fork with no injected fault reproduces the
// golden outcome exactly, and that at least one fork in the sweep carries
// prestocked messages (the barrier-straddling sends in forkTestApp).
func TestForkFaultFree(t *testing.T) {
	const n = 4
	const seed = int64(7)
	rec := Run(RunOptions{NumRanks: n, Seed: seed, Record: true}, forkTestApp)
	if !rec.Trace.Forkable() {
		t.Fatalf("golden trace not forkable: %s", rec.Trace.Reason())
	}
	golden := Run(RunOptions{NumRanks: n, Seed: seed}, forkTestApp)
	prestocked := false
	for rank := 0; rank < n; rank++ {
		for _, ev := range rec.Trace.ranks[rank].events {
			if ev.kind != evColl {
				continue
			}
			f := rec.Trace.Fork(rank, ev.site, int(ev.inv))
			for _, ps := range f.prestock {
				if len(ps) > 0 {
					prestocked = true
				}
			}
			res := Run(RunOptions{NumRanks: n, Seed: seed, Fork: f}, forkTestApp)
			if want, got := runDigest(golden), runDigest(res); want != got {
				t.Fatalf("fault-free fork diverges at rank %d site %#x inv %d:\ngolden:\n%s\nforked:\n%s", rank, ev.site, ev.inv, want, got)
			}
		}
	}
	if !prestocked {
		t.Fatal("no fork in the sweep carried prestocked messages; the straddling-send pattern is not exercising prestock")
	}
}

// TestForkUnpooled checks fork replay is pooling-independent.
func TestForkUnpooled(t *testing.T) {
	const n = 4
	const seed = int64(11)
	rec := Run(RunOptions{NumRanks: n, Seed: seed, Record: true, DisablePooling: true}, forkTestApp)
	if !rec.Trace.Forkable() {
		t.Fatalf("golden trace not forkable: %s", rec.Trace.Reason())
	}
	var ev0 *traceEvent
	for i := range rec.Trace.ranks[2].events {
		if rec.Trace.ranks[2].events[i].kind == evColl {
			ev0 = &rec.Trace.ranks[2].events[i]
		}
	}
	f := rec.Trace.Fork(2, ev0.site, int(ev0.inv))
	if f == nil {
		t.Fatal("no fork for the last collective on rank 2")
	}
	inj := func() *countInjector { return &countInjector{rank: 2, site: ev0.site, inv: int(ev0.inv)} }
	full := Run(RunOptions{NumRanks: n, Seed: seed, Hook: inj(), DisablePooling: true}, forkTestApp)
	forked := Run(RunOptions{NumRanks: n, Seed: seed, Hook: inj(), Fork: f, DisablePooling: true}, forkTestApp)
	if want, got := runDigest(full), runDigest(forked); want != got {
		t.Fatalf("unpooled fork diverges:\nfull:\n%s\nforked:\n%s", want, got)
	}
}

// TestPrestockBorrowsTape pins the prestock ownership rule: go-live
// messages alias the golden tape, which every trial of a campaign shares,
// so a raw Recv must hand the application a private copy (here scribbled
// over) while a typed receive decodes the span where it lies — and after
// any number of forked runs the tape still holds the golden bytes.
func TestPrestockBorrowsTape(t *testing.T) {
	app := func(r *Rank) error {
		if r.ID() == 0 {
			r.SendFloat64s(CommWorld, 1, 9, []float64{1.5, 2.5})
			r.Send(CommWorld, 1, 10, []byte{1, 2, 3})
		}
		r.Barrier(CommWorld)
		if r.ID() == 1 {
			raw := r.Recv(CommWorld, 0, 10)
			r.ReportResult(float64(raw[0]), float64(raw[1]), float64(raw[2]))
			for i := range raw {
				raw[i] = 0xFF
			}
			r.ReportResult(r.RecvFloat64sInto(CommWorld, 0, 9, make([]float64, 2))...)
		}
		return nil
	}
	rec := Run(RunOptions{NumRanks: 2, Seed: 1, Record: true}, app)
	if !rec.Trace.Forkable() {
		t.Fatalf("trace not forkable: %s", rec.Trace.Reason())
	}
	barrier := rec.Trace.ranks[0].events[2]
	f := rec.Trace.Fork(0, barrier.site, int(barrier.inv))
	if f == nil || len(f.prestock[1]) != 2 {
		t.Fatalf("fork at the barrier should prestock both messages on rank 1: %+v", f)
	}
	tape := string(rec.Trace.ranks[1].data)
	for i := 0; i < 3; i++ {
		res := Run(RunOptions{NumRanks: 2, Seed: 1, Fork: f}, app)
		if want, got := runDigest(rec), runDigest(res); want != got {
			t.Fatalf("forked run %d diverges:\ngolden:\n%s\nforked:\n%s", i, want, got)
		}
		if string(rec.Trace.ranks[1].data) != tape {
			t.Fatalf("forked run %d wrote through a prestocked message into the golden tape", i)
		}
	}
}

// TestTracePoison checks each unreplayable feature marks the trace broken.
func TestTracePoison(t *testing.T) {
	cases := []struct {
		name string
		app  func(r *Rank) error
	}{
		{"wildcard recv", func(r *Rank) error {
			if r.ID() == 0 {
				b := r.FromFloat64s([]float64{1})
				r.Send(CommWorld, 1, 3, b.Bytes())
				b.Release()
			}
			if r.ID() == 1 {
				r.Recv(CommWorld, AnySource, 3)
			}
			return nil
		}},
		{"commdup", func(r *Rank) error {
			r.CommDup(CommWorld)
			return nil
		}},
		{"irecv", func(r *Rank) error {
			if r.ID() == 0 {
				b := r.FromFloat64s([]float64{1})
				r.Send(CommWorld, 1, 3, b.Bytes())
				b.Release()
			}
			if r.ID() == 1 {
				r.Irecv(CommWorld, 0, 3).Wait()
			}
			return nil
		}},
	}
	for _, tc := range cases {
		res := Run(RunOptions{NumRanks: 2, Seed: 1, Record: true}, tc.app)
		if res.Trace.Forkable() {
			t.Errorf("%s: trace unexpectedly forkable", tc.name)
		}
	}
	// A network fault domain poisons recording up front.
	res := Run(RunOptions{NumRanks: 2, Seed: 1, Record: true, CrashedRanks: []int{1}}, func(r *Rank) error { return nil })
	if res.Trace.Forkable() {
		t.Error("crashed-rank recording unexpectedly forkable")
	}
}
