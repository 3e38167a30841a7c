package mpi_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/is"
	"github.com/fastfit/fastfit/internal/apps/lu"
	"github.com/fastfit/fastfit/internal/apps/mg"
	"github.com/fastfit/fastfit/internal/apps/minimd"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// The execution-mode table. A trial may take any of the runtime's shortcuts:
// the buffer arena, the shared-memory rendezvous, the fork from an
// injection-prefix snapshot with the other ranks started on demand, the
// resume from a checkpoint, the decided trial, and the cuts at the faulted
// call and at a later checkpoint. Every one of them is held to the same
// reference run of the same fault, and to one definition of equal
// (equivalent). The faults are the campaign's own — fault.Fault applied by
// fault.Injector, which package mpi cannot import — so the table lives
// outside the package.

// cutCall is one collective call of the golden run, as the injector
// addresses it, with the widths its faults wrap to.
type cutCall struct {
	site   uintptr
	inv    int
	typ    mpi.CollType
	widths fault.Widths
}

// callLog records every rank's calls in program order.
type callLog struct {
	mpi.NopHook
	mu    sync.Mutex
	calls [][]cutCall
}

func (l *callLog) BeforeCollective(c *mpi.CollectiveCall) {
	l.mu.Lock()
	l.calls[c.Rank] = append(l.calls[c.Rank], cutCall{c.Site, c.Invocation, c.Type, fault.WidthsOf(c.Args)})
	l.mu.Unlock()
}

// record makes fn's golden run under opts the way a campaign makes it —
// one fault-free run, hooked and recorded at once — and returns it with
// every rank's collective calls. The run must be clean and its trace
// forkable.
func record(t *testing.T, opts mpi.RunOptions, fn func(*mpi.Rank) error) (mpi.RunResult, [][]cutCall) {
	t.Helper()
	log := &callLog{calls: make([][]cutCall, opts.NumRanks)}
	opts.Hook, opts.Record = log, true
	golden := runBooked(opts, fn).RunResult
	if err := golden.FirstError(); err != nil || golden.Provenance != mpi.NotKilled {
		t.Fatalf("golden run ended %q: %v", golden.Provenance, err)
	}
	if !golden.Trace.Forkable() {
		t.Fatalf("golden trace not forkable: %s", golden.Trace.Reason())
	}
	return golden, log.calls
}

// reference is what every shortcut is compared with: opts run with no
// fork and no pooling, so on messages only, with no arena, and with every
// rank started at t=0.
func reference(opts mpi.RunOptions) mpi.RunOptions {
	opts.Fork, opts.DisablePooling = nil, true
	return opts
}

// equivalent says how cand, a run with the runtime's shortcuts on, differs
// from ref, the same fault's reference run, "" when it does not. golden is
// the fault-free run both are classified against; faulted is the rank the
// fault was injected on.
//
// The two runs must have the same class, and each must set its Deadlock,
// TimedOut and Cancelled from its provenance. Beyond that, what the
// candidate's shortcut makes of its ranks decides what is compared:
//   - a cut run (Reconverged) hands back the golden ranks, so the
//     reference's ranks must be the golden ranks, bit for bit;
//   - a decided run never started its other ranks: it has the reference's
//     Deadlock, TimedOut and first error and the same error on the faulted
//     rank, every other rank of it was killed for the decision, and no
//     other rank of the reference failed on its own (it could only ever
//     see golden data);
//   - any other run has the reference's Deadlock, TimedOut and first error
//     type and, where the reference's ranks settled (RanksSettled: nothing
//     stopped them mid-flight), every rank's error and values, by bits.
func equivalent(golden, ref, cand mpi.RunResult, faulted int) string {
	if ref.Reconverged || ref.Provenance == mpi.Decided {
		return fmt.Sprintf("the reference run ended %q", ref.Provenance)
	}
	for _, r := range []mpi.RunResult{ref, cand} {
		if d := r.FlagsDisagree(); d != "" {
			return d
		}
	}
	if a, b := classify.Classify(golden, cand), classify.Classify(golden, ref); a != b {
		return fmt.Sprintf("%v (%q), the reference %v (%q)", a, cand.Provenance, b, ref.Provenance)
	}
	firstType := func(r mpi.RunResult) string { return fmt.Sprintf("%T", r.FirstError()) }
	switch {
	case cand.Reconverged:
		if d := ranksDiff(ref, golden); d != "" {
			return fmt.Sprintf("%q, but the reference is not the golden run: %s", cand.Provenance, d)
		}
	case cand.Provenance == mpi.Decided:
		if a, b := fmt.Sprintf("deadlock=%t timedout=%t first=%v", cand.Deadlock, cand.TimedOut, cand.FirstError()),
			fmt.Sprintf("deadlock=%t timedout=%t first=%v", ref.Deadlock, ref.TimedOut, ref.FirstError()); a != b {
			return fmt.Sprintf("decided: %s, the reference %s", a, b)
		}
		if a, b := rankText(cand, faulted), rankText(ref, faulted); a != b {
			return fmt.Sprintf("decided: faulted %s, the reference's %s", a, b)
		}
		for i := range cand.Ranks {
			if i == faulted {
				continue
			}
			if err := cand.Ranks[i].Err; err != (mpi.Killed{Reason: mpi.Decided.String()}) {
				return fmt.Sprintf("decided: held rank %d ended with %v", i, err)
			}
			switch err := ref.Ranks[i].Err.(type) {
			case mpi.SegFault, mpi.MPIError, mpi.AppError:
				return fmt.Sprintf("decided, but rank %d of the reference failed on its own: %v", i, err)
			}
		}
	default:
		if cand.Deadlock != ref.Deadlock || cand.TimedOut != ref.TimedOut || firstType(cand) != firstType(ref) {
			return fmt.Sprintf("%q with first error %v, the reference %q with %v", cand.Provenance, cand.FirstError(), ref.Provenance, ref.FirstError())
		}
		if ref.RanksSettled() {
			if d := ranksDiff(cand, ref); d != "" {
				return fmt.Sprintf("%q: %s, the reference's differ", cand.Provenance, d)
			}
		}
	}
	return ""
}

// trial is one run of the table with every rank's books as it stopped.
type trial struct {
	mpi.RunResult
	books []mpi.Books
}

// booksDiff names the first rank whose work, phase or error handling
// differ between cand and ref, "" when none does. Only ranks that ran their
// course are compared: none of a cut or decided candidate, none where the
// reference's ranks did not settle. Invocation counts are not: they
// advance on the calls a run observes, and a forked run observes only those
// its fault can be addressed to (TestForkedHookScope).
func booksDiff(ref, cand trial) string {
	if cand.Reconverged || cand.Provenance == mpi.Decided || !ref.RanksSettled() {
		return ""
	}
	for i, b := range ref.books {
		a := cand.books[i]
		if a.Work != b.Work || a.Phase != b.Phase || a.ErrHandling != b.ErrHandling {
			return fmt.Sprintf("rank %d work %d, phase %v, error handling %t; the reference's %d, %v, %t", i, a.Work, a.Phase, a.ErrHandling, b.Work, b.Phase, b.ErrHandling)
		}
	}
	return ""
}

// ranksDiff names the first rank whose error or values differ between a
// and b, "" when none does.
func ranksDiff(a, b mpi.RunResult) string {
	for i := range b.Ranks {
		if ta, tb := rankText(a, i), rankText(b, i); ta != tb {
			return ta + " vs " + tb
		}
	}
	return ""
}

// rankText renders rank i's error and values, the values as bits.
func rankText(res mpi.RunResult, i int) string {
	rr := res.Ranks[i]
	s := fmt.Sprintf("rank %d err=%v values=", i, rr.Err)
	for _, v := range rr.Values {
		s += fmt.Sprintf(" %016x", math.Float64bits(v))
	}
	return s
}

// sampleBits is the fixed part of a call's fault sample for one target: a
// low and a high bit of the parameter, or the one fault an absent
// parameter has. It needs no raw index past the width: the runtime sees
// only the arguments Apply flipped, so a wrapped index is its effective
// bit (fault's TestApplyEqualsApplyOfEffectiveFault), and every seeded
// draw is a raw index in [0, fault.BitSpace) anyway.
func sampleBits(width int) []int {
	if width == 0 {
		return []int{0}
	}
	return []int{5 % width, width - 3}
}

// appMain runs a bundled application at the given size.
func appMain(app apps.App, ranks, scale, iters int) func(*mpi.Rank) error {
	cfg := app.DefaultConfig()
	cfg.Ranks, cfg.Scale, cfg.Iters = ranks, scale, iters
	return func(r *mpi.Rank) error { return app.Main(r, cfg) }
}

// A shortcut is one way a candidate run left the reference's path; the
// table counts, per row, how many of its runs took each.
type shortcut int

const (
	forked       shortcut = iota // started from an injection-prefix snapshot
	resumed                      // some rank resumed from a checkpoint
	decided                      // the faulted rank failed while the others were held
	reconverged                  // cut at the faulted call
	atCheckpoint                 // cut at a later checkpoint
	met                          // rendezvous instances completed in memory
	flipped                      // rendezvous arrivals sent to messages
	numShortcuts
)

var shortcutNames = [numShortcuts]string{"forked", "resumed", "decided", "reconverged", "at-checkpoint", "met", "flipped"}

type coverage [numShortcuts]int

func (c *coverage) count(fk *mpi.Fork, cand mpi.RunResult) {
	if fk != nil {
		c[forked]++
		if fk.Resumes() > 0 {
			c[resumed]++
		}
	}
	switch cand.Provenance {
	case mpi.Decided:
		c[decided]++
	case mpi.Reconverged:
		c[reconverged]++
	case mpi.ReconvergedAtCheckpoint:
		c[atCheckpoint]++
	}
	m, f := cand.Meetings()
	c[met] += m
	c[flipped] += f
}

func (c coverage) String() string {
	s := ""
	for k, n := range c {
		s += fmt.Sprintf(" %s=%d", shortcutNames[k], n)
	}
	return s[1:]
}

// trialRow is one application of the table. Every row runs fault-free. A
// row with fork set is also swept: every fork of its golden run's trace is
// tried under a fault sample — every target of the faulted call at
// sampleBits, unless drawn is set — and draws seeded allparams faults.
type trialRow struct {
	name  string
	opts  mpi.RunOptions
	fn    func(*mpi.Rank) error
	fork  bool
	drawn bool // sample the seeded draws only
	// resuming rows sweep only the forks that resume some rank
	resuming bool
	draws    int
	want     []shortcut // shortcuts the row's runs must take
	// met and flipped pin the fault-free run's rendezvous instances
	// (RendezvousCase); -1 is any number.
	met, flipped int
	// settled rows end every rank as a function of the program, kills
	// included, so every rank of every run is compared with the
	// reference's, whatever equivalent compares.
	settled bool
}

// sweptRow is a row that is swept with the fixed sample and the usual
// number of draws. Its wall clock is one the work budget always beats, so
// a runaway trial ends by the budget on both runs of a pair however busy
// the host is.
func sweptRow(name string, n int, fn func(*mpi.Rank) error, want ...shortcut) trialRow {
	draws := 2
	if testing.Short() || mpi.RaceEnabled {
		draws = 1
	}
	return trialRow{name: name, opts: mpi.RunOptions{NumRanks: n, Seed: 5, Timeout: 30 * time.Second}, fn: fn, fork: true, draws: draws, want: want, met: -1, flipped: -1}
}

var allShortcuts = []shortcut{forked, resumed, decided, reconverged, atCheckpoint, met, flipped}

// The table is one list of rows, run in parts under the names the suite
// has long reported them by; every part goes through runRows, so every row
// is held to the same reference by the same equivalent.

// haloApps are the checkpointing halo applications at n ranks.
func haloApps(n int) map[string]func(*mpi.Rank) error {
	return map[string]func(*mpi.Rank) error{
		"lu": appMain(lu.New(), n, 16, 3), "mg": appMain(mg.New(), n, 16, 2), "minimd": appMain(minimd.New(), n, 16, 8/n),
	}
}

// haloRows are the halo applications at 4 ranks, and at 8 outside -short
// and the race detector, and randApp, whose checkpoints forget nothing:
// the rows every resumed fork comes from (TestResumeMatchesReplay). At 8
// ranks they take the fixed sample at the forks that resume a rank, and
// decidedRows the draws at every fork, so each fault runs once; of the
// three, only lu cuts a resumed fork at a checkpoint there.
func haloRows() []trialRow {
	ranks := []int{4, 8}
	if testing.Short() || mpi.RaceEnabled {
		ranks = []int{4}
	}
	var rows []trialRow
	for _, n := range ranks {
		for _, name := range []string{"lu", "mg", "minimd"} {
			r := sweptRow(fmt.Sprintf("%s/%d", name, n), n, haloApps(n)[name], allShortcuts...)
			if n == 8 {
				r.draws, r.resuming = 0, true
				if name != "lu" {
					r.want = []shortcut{forked, resumed, decided, reconverged, met, flipped}
				}
			}
			rows = append(rows, r)
		}
	}
	return append(rows, sweptRow("rand/4", 4, randApp(false), forked, resumed, decided, reconverged, met, flipped))
}

// decidedRows are the halo applications at 8 ranks under the seeded draws
// of their sample, many at every fork, where most faults end on the
// faulted rank alone (TestDecidedMatchesReplay).
func decidedRows() []trialRow {
	draws := 8
	if testing.Short() || mpi.RaceEnabled {
		draws = 2
	}
	var rows []trialRow
	for _, name := range []string{"lu", "mg", "minimd"} {
		r := sweptRow(name, 8, haloApps(8)[name], forked, resumed, decided, reconverged)
		r.drawn, r.draws = true, draws
		rows = append(rows, r)
	}
	return rows
}

// cutRows are cutTestApp, every collective type at every target, on the
// recursive-doubling Allreduce and, at three ranks, on its reduce+bcast
// fallback, where only Barriers meet in memory and nothing flips
// (TestForkReconvergenceProperty).
func cutRows() []trialRow {
	return []trialRow{
		sweptRow("cut/4", 4, cutTestApp, allShortcuts...),
		sweptRow("cut/3", 3, cutTestApp, forked, resumed, decided, reconverged, atCheckpoint, met),
	}
}

// forkRows is ForkTestApp, whose ring traffic crosses every collective, so
// its forks prestock messages (TestForkMatchesFullReplay).
func forkRows() []trialRow {
	r := sweptRow("fork/4", 4, mpi.ForkTestApp, forked, decided, reconverged, met, flipped)
	r.opts.Seed = 42
	return []trialRow{r}
}

// rendezvousRows are the rendezvous battery, fault-free
// (TestRendezvousMatchesMessages).
func rendezvousRows() []trialRow {
	var rows []trialRow
	for _, c := range mpi.RendezvousBattery {
		timeout := c.Timeout
		if timeout == 0 {
			timeout = 30 * time.Second
		}
		rows = append(rows, trialRow{name: c.Name, fn: c.App, met: c.Met, flipped: c.Flipped, settled: true,
			opts: mpi.RunOptions{NumRanks: c.Ranks, Seed: 3, Timeout: timeout, MailboxCap: c.Mailbox}})
	}
	return rows
}

// equivalenceRows are the rows no part above runs: is, gateApp and every
// maskApp variant (TestTrialEquivalence).
func equivalenceRows() []trialRow {
	rows := []trialRow{
		sweptRow("is/4", 4, appMain(is.New(), 4, 32, 3), forked, decided, reconverged, met, flipped),
		sweptRow("gate/4", 4, gateApp(&gateRun{}, false), forked, resumed, decided, reconverged, met, flipped),
	}
	// Every maskApp variant but the base one refuses the checkpoint cut
	// that the base one must take.
	for v := range maskVariants {
		r := sweptRow(fmt.Sprintf("mask/%d", v), 4, maskApp(v, false, nil), forked, resumed, decided, reconverged, met, flipped)
		if v == maskBase {
			r.want = append(r.want, atCheckpoint)
		}
		r.opts = maskOpts(v)
		rows = append(rows, r)
	}
	return rows
}

// TestTrialEquivalence runs the table's rows that no older name runs, and
// requires the rows of the whole table to name every shortcut among them,
// so that every shortcut is held to the reference wherever the table runs
// in full.
func TestTrialEquivalence(t *testing.T) {
	var named coverage
	for _, part := range [][]trialRow{haloRows(), decidedRows(), cutRows(), forkRows(), rendezvousRows(), equivalenceRows()} {
		for _, row := range part {
			for _, s := range row.want {
				named[s]++
			}
		}
	}
	for k, n := range named {
		if n == 0 {
			t.Errorf("no row of the table must take the %s shortcut", shortcutNames[k])
		}
	}
	runRows(t, equivalenceRows())
}

// TestResumeMatchesReplay runs haloRows.
func TestResumeMatchesReplay(t *testing.T) { runRows(t, haloRows()) }

// TestDecidedMatchesReplay runs decidedRows.
func TestDecidedMatchesReplay(t *testing.T) { runRows(t, decidedRows()) }

// TestForkReconvergenceProperty runs cutRows.
func TestForkReconvergenceProperty(t *testing.T) { runRows(t, cutRows()) }

// TestForkMatchesFullReplay runs forkRows.
func TestForkMatchesFullReplay(t *testing.T) { runRows(t, forkRows()) }

// TestRendezvousMatchesMessages runs rendezvousRows.
func TestRendezvousMatchesMessages(t *testing.T) { runRows(t, rendezvousRows()) }

// runRows runs every row as a parallel subtest: fault-free and, on a swept
// row, under every fault of its sample, each run once with every shortcut
// on — the production mpi.Run, forked where the fault has a fork — and
// once as the reference, requiring equivalent to hold of every pair and
// each row to take the shortcuts it names.
func runRows(t *testing.T, rows []trialRow) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			cov := row.run(t)
			for _, s := range row.want {
				if cov[s] == 0 {
					t.Errorf("no run took the %s shortcut: %v", shortcutNames[s], cov)
				}
			}
			t.Logf("%v", cov)
		})
	}
}

// run runs one row, failing the test where equivalent does not hold or,
// beside it, the books RunResult does not carry differ (booksDiff), and
// returns the row's coverage.
func (row trialRow) run(t *testing.T) coverage {
	var cov coverage
	fails := 0
	check := func(what string, golden mpi.RunResult, ref, cand trial, faulted int) {
		t.Helper()
		d := equivalent(golden, ref.RunResult, cand.RunResult, faulted)
		if d == "" && row.settled {
			d = ranksDiff(cand.RunResult, ref.RunResult)
		}
		if d == "" {
			d = booksDiff(ref, cand)
		}
		if d != "" {
			t.Errorf("%s: %s", what, d)
			if fails++; fails == 5 {
				t.Fatal("stopping the row at its fifth difference")
			}
		}
	}

	cand, ref := runBooked(row.opts, row.fn), runBooked(reference(row.opts), row.fn)
	if m, f := ref.Meetings(); m+f != 0 {
		t.Fatalf("the reference run met in memory: %d met, %d flipped", m, f)
	}
	if m, f := cand.Meetings(); row.met >= 0 && m != row.met || row.flipped >= 0 && f != row.flipped {
		t.Errorf("fault-free run: %d instances met, %d arrivals flipped; want %d and %d", m, f, row.met, row.flipped)
	}
	check("fault-free", ref.RunResult, ref, cand, -1)
	cov.count(nil, cand.RunResult)
	if row.fork {
		row.sweep(t, func(f fault.Fault, c cutCall, fk *mpi.Fork, golden mpi.RunResult, ref, cand trial) {
			check(fmt.Sprintf("%v (%v)", f, c.typ), golden, ref, cand, f.Rank)
			cov.count(fk, cand.RunResult)
		})
	}
	return cov
}

// sweep records the row's golden run and runs every fault of its sample at
// every fork of the trace, forked and as the reference, handing each pair
// to each.
func (row trialRow) sweep(t *testing.T, each func(f fault.Fault, c cutCall, fk *mpi.Fork, golden mpi.RunResult, ref, cand trial)) {
	t.Helper()
	golden, calls := record(t, row.opts, row.fn)
	rng := rand.New(rand.NewSource(1))
	for rank, cs := range calls {
		for _, c := range cs {
			fk := golden.Trace.Fork(rank, c.site, c.inv)
			if fk == nil {
				t.Fatalf("no fork for rank %d %v invocation %d", rank, c.typ, c.inv)
			}
			if row.resuming && fk.Resumes() == 0 {
				continue
			}
			var faults []fault.Fault
			for _, target := range fault.TargetsFor(c.typ) {
				if row.drawn {
					break
				}
				for _, bit := range sampleBits(c.widths.Of(target)) {
					faults = append(faults, fault.Fault{Rank: rank, Site: c.site, Invocation: c.inv, Target: target, Bit: bit})
				}
			}
			for range row.draws {
				faults = append(faults, fault.RandomFault(rng, rank, c.site, c.inv, c.typ))
			}
			// A fault whose effective bit an earlier one of the call's
			// sample flips already is the same run.
			seen := map[[2]int]bool{}
			for _, f := range faults {
				key := [2]int{int(f.Target), c.widths.EffectiveBit(f.Target, f.Bit)}
				if seen[key] {
					continue
				}
				seen[key] = true
				each(f, c, fk, golden, runFault(t, reference(row.opts), nil, f, row.fn), runFault(t, row.opts, fk, f, row.fn))
			}
		}
	}
}

// runFault runs fn under opts, forked at fk when it is not nil, with f
// injected.
func runFault(t *testing.T, opts mpi.RunOptions, fk *mpi.Fork, f fault.Fault, fn func(*mpi.Rank) error) trial {
	t.Helper()
	inj := fault.NewInjector(nil, f)
	opts.Hook, opts.Fork = inj, fk
	res := runBooked(opts, fn)
	if len(inj.Applied())+len(inj.Missed()) != 1 {
		t.Fatalf("%v: the injector did not reach its call", f)
	}
	return res
}
