package mpi

import (
	"maps"
	"math"
	"slices"
	"sort"
)

// Fork-at-injection-site execution, part 4: resume from the last checkpoint.
//
// The tape serves a forked run's prefix communication, but every rank still
// recomputes its prefix from t=0, and for a fault late in the run that is
// nearly a whole golden run. An application that can name its state at a
// program point — the top of an outer iteration, and just before the
// iteration's first collective — checkpoints it there. The
// recording run keeps a copy of each rank's state with the runtime's own
// bookkeeping at that point (Checkpoint); Trace.Fork picks, for every rank,
// the latest one at or before the rank's cut; and a forked rank that asks
// (Resume) starts from that copy, replays the tape from the checkpoint's
// position and goes live at its cut exactly as before.
//
// Ranks never wait on each other inside a replayed prefix, so each rank
// resumes from its own checkpoint and no cross-rank consistency is needed.
// A rank whose cut comes before its first checkpoint, and every rank of an
// application that never checkpoints, replays from t=0.
//
// The contract is the application's: a State holds everything the rest of
// the run can read of what the run before it computed. Scratch the suffix
// writes before it reads may be left out; anything else left out makes the
// resumed run differ from the full one. A resumed rank that then leaves the
// tape is reported as a Divergence, never as an outcome.

// State is an application's state at a checkpoint. Clone returns a copy
// that shares no mutable memory with the receiver: the recording run keeps
// one clone per checkpoint, and every resumed run gets a clone of that, so
// concurrent trials never see each other's writes. Equal reports whether
// two states are exactly the same, comparing floats by their bits
// (EqualBits): a forked run whose every rank reaches a checkpoint in the
// recording run's state ends there (part 6, below).
type State interface {
	Clone() State
	Equal(State) bool
}

// checkpoint is one rank's state at a checkpoint of the recording run and
// the runtime bookkeeping that goes with it: everything a live run has
// accumulated on the rank by then that a replayed prefix also advances.
type checkpoint struct {
	state       State
	pos         int // the rank's tape events before the checkpoint
	work        int64
	invents     map[uintptr]int
	collSeq     map[Comm]int64
	phase       Phase
	errHandling bool
	rng         *fibSource // the default Rand stream, when it is live
	reported    []float64
}

// Checkpoint records s as the rank's state at this point of the run. Only a
// recording run keeps it (RunOptions.Record); every other run ignores the
// call, so applications checkpoint unconditionally. Call it where the
// program can restart, outside any collective or ErrCheck region: at the top
// of an outer iteration, and again just before the iteration's first
// collective. A fork cut at a collective resumes from the second with no
// compute or receive of the iteration left to replay; point-to-point forks
// resume from the first, and a masked fault in the previous iteration's
// collectives ends there (part 6). The State marks which of the two it is,
// so a run resumed at the second skips the iteration's compute.
func (r *Rank) Checkpoint(s State) {
	seq := r.collSeq[CommWorld]
	r.ckEpoch = seq + 1
	if r.ckNext >= 0 {
		r.reconvergeAt(s, seq)
	}
	rec := r.world.rec
	if rec == nil || rec.dead.Load() {
		return
	}
	tape := &rec.ranks[r.id]
	ck := checkpoint{
		state:       s.Clone(),
		pos:         len(tape.events),
		work:        r.work,
		invents:     maps.Clone(r.invents),
		collSeq:     maps.Clone(r.collSeq),
		phase:       r.phase,
		errHandling: r.errHandling,
		reported:    slices.Clone(r.reported),
	}
	if r.rndLive {
		rng := r.rngSrc
		ck.rng = &rng
	}
	tape.ckpts = append(tape.ckpts, ck)
}

// Resume returns a fresh copy of the state this rank checkpointed last
// before its cut, in a forked run whose trace holds one, and restores the
// runtime bookkeeping that goes with it; the rank then continues from that
// checkpoint. It returns nil in every other case — an ordinary run, a
// recording run, a rank cut before its first checkpoint — and the rank
// starts from the beginning. Call it first thing, before any other call on
// the rank.
func (r *Rank) Resume() State {
	rs := r.replay
	if rs == nil || rs.resume == nil || rs.pos != 0 {
		return nil
	}
	ck := rs.resume
	rs.resume = nil
	rs.pos = ck.pos
	r.work = ck.work
	r.invents = copyInto(r.invents, ck.invents)
	r.collSeq = copyInto(r.collSeq, ck.collSeq)
	r.phase, r.errHandling = ck.phase, ck.errHandling
	if ck.rng != nil {
		r.Rand() // seeds the generator for this run, then takes the stream's state
		r.rngSrc.vec, r.rngSrc.tap, r.rngSrc.feed = ck.rng.vec, ck.rng.tap, ck.rng.feed
	}
	r.reported = slices.Clone(ck.reported)
	return ck.state.Clone()
}

// copyInto returns a map holding exactly src's entries: dst, emptied and
// refilled, so a rank keeps its maps across runs, or a clone when dst is nil.
func copyInto[M ~map[K]V, K comparable, V any](dst, src M) M {
	if dst == nil {
		return maps.Clone(src)
	}
	clear(dst)
	maps.Copy(dst, src)
	return dst
}

// resumeFrom returns the latest of a rank's checkpoints at or before its
// cut, or nil when the cut comes first.
func resumeFrom(ckpts []checkpoint, cut int) *checkpoint {
	for i := len(ckpts) - 1; i >= 0; i-- {
		if ckpts[i].pos <= cut {
			return &ckpts[i]
		}
	}
	return nil
}

// Fork-at-injection-site execution, part 6: reconvergence at a checkpoint.
//
// The call cut (fork.go, part 3) ends a trial whose fault is masked at the
// call it corrupts. A fault masked later — a perturbed norm that only feeds
// a threshold test, a low bit rounded away — still runs the whole golden
// suffix. Checkpoints are a second place to look: a forked run also ends at
// the first eligible checkpoint past its faulted collective that every
// rank reaches in exactly the state the recording run had there.
//
// At each Checkpoint whose CommWorld sequence number is past the faulted
// instance, a live rank compares itself with the recording run's checkpoint
// at the same sequence number: the application state by State.Equal, and
// the bookkeeping Resume restores — work, collective sequence numbers,
// phase, error-handling mark, reported values (by their bits) and the
// default random stream. The per-site invocation counts are left out: a
// forked run counts only the calls its hook observes, so they never equal
// the recording run's, and past the faulted instance no hook reads them.
// By the State contract (part 4) a rank resumed from that checkpoint runs
// the golden suffix, and so does a rank that reaches it, as long as what it
// receives from then on is golden too.
//
// Collectives are: checkpoint k is taken at one sequence number on every
// rank, so every later instance has only ranks past their checkpoint k.
// User messages need two rules.
//
//   - Eligibility, decided once per trace: every rank took its k-th
//     checkpoint at the same sequence number, the first it took there, and
//     no recorded message crosses it (sent before its sender's checkpoint
//     k, received after its receiver's). The stray rule below would refuse
//     such a checkpoint at run time too; deciding it here spares the
//     comparisons.
//   - Strays: a faulted run can still send a message the golden run sends
//     later or never. Every message carries its sender's checkpoint epoch,
//     the sequence number of its last checkpoint plus one. A receive past
//     the receiver's checkpoint k of a message sent before the sender's
//     refuses k, and so does the rank that completes tally k when such a
//     message is still queued anywhere.
//
// The rank that completes tally k under World.mu ends the run, and Run
// returns the recording run's ranks with Reconverged set, as the call cut
// does. No rank can still be held (part 5) by then: the live faulted
// collective released them.

// eligibleCkpt is a checkpoint a forked run may end at: the k-th of every
// rank, taken at CommWorld sequence number seq.
type eligibleCkpt struct {
	k   int
	seq int64
}

// eligibleCheckpoints returns a recorded trace's eligible checkpoints in
// order.
func eligibleCheckpoints(ranks []rankTape) []eligibleCkpt {
	n := len(ranks[0].ckpts)
	for i := range ranks {
		n = min(n, len(ranks[i].ckpts))
	}
	ok := make([]bool, n)
	for k := range ok {
		seq := ranks[0].ckpts[k].collSeq[CommWorld]
		ok[k] = true
		for i := range ranks {
			c := ranks[i].ckpts
			if c[k].collSeq[CommWorld] != seq || k > 0 && c[k-1].collSeq[CommWorld] == seq {
				ok[k] = false
			}
		}
	}
	for i := range ranks {
		t := &ranks[i]
		for pos, ev := range t.events {
			if ev.kind != evRecv {
				continue
			}
			// The send precedes its sender's checkpoints from on; the
			// receive follows its receiver's checkpoints before to.
			from, to := ckptsUpTo(ranks[ev.sender].ckpts, int(ev.sendPos)), ckptsUpTo(t.ckpts, pos)
			for k := from; k < min(to, n); k++ {
				ok[k] = false
			}
		}
	}
	var out []eligibleCkpt
	for k, e := range ok {
		if e {
			out = append(out, eligibleCkpt{k, ranks[0].ckpts[k].collSeq[CommWorld]})
		}
	}
	return out
}

// ckptsUpTo counts the checkpoints taken before tape position pos.
func ckptsUpTo(ckpts []checkpoint, pos int) int {
	return sort.Search(len(ckpts), func(k int) bool { return ckpts[k].pos > pos })
}

// refused marks a tally that can no longer complete.
const refused = math.MinInt32

// reconvergeAt runs at every checkpoint of a forked run that may end at
// one. At an eligible checkpoint past the faulted instance it compares the
// rank with the recording run and counts it in that checkpoint's tally
// when they agree; the rank that completes the tally ends the run, unless
// a message sent before the checkpoint is still queued.
func (r *Rank) reconvergeAt(s State, seq int64) {
	w := r.world
	el := w.fork.trace.eligible
	for r.ckNext < len(el) && el[r.ckNext].seq < seq {
		r.ckNext++
	}
	if r.ckNext == len(el) || el[r.ckNext].seq != seq {
		return
	}
	j := r.ckNext
	r.ckNext++
	if !r.atCheckpoint(&w.fork.trace.ranks[r.id].ckpts[el[j].k], s) {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.held {
		panic("mpi: a rank is still held past the faulted collective")
	}
	if w.tally[j]++; w.tally[j] == int32(w.size) && !w.queuedBefore(seq) {
		w.cutRun(ReconvergedAtCheckpoint)
	}
}

// atCheckpoint reports whether the rank is where the recording run was at
// ck, invocation counts aside.
func (r *Rank) atCheckpoint(ck *checkpoint, s State) bool {
	if r.work != ck.work || r.phase != ck.phase || r.errHandling != ck.errHandling ||
		!maps.Equal(r.collSeq, ck.collSeq) ||
		!EqualBits(r.reported, ck.reported) || r.rndLive != (ck.rng != nil) {
		return false
	}
	if ck.rng != nil && (r.rngSrc.tap != ck.rng.tap || r.rngSrc.feed != ck.rng.feed || r.rngSrc.vec != ck.rng.vec) {
		return false
	}
	return s.Equal(ck.state)
}

// refuse bars the eligible checkpoints taken at sequence numbers lo to hi
// from ending the run: a message sent before them was received after.
// Called under mu.
func (w *World) refuse(lo, hi int64) {
	for j, e := range w.fork.trace.eligible {
		if lo <= e.seq && e.seq <= hi {
			w.tally[j] = refused
		}
	}
}

// queuedBefore reports whether a user message sent before the checkpoint
// taken at seq waits in any rank's inbox or pending list, where a rank past
// that checkpoint would receive it. Called under mu.
func (w *World) queuedBefore(seq int64) bool {
	for _, rk := range w.ranks {
		for _, q := range [2][]message{rk.inbox, rk.pending} {
			for i := range q {
				if m := &q[i]; m.tag >= 0 && m.tag < maxUserTag && m.ck <= seq {
					return true
				}
			}
		}
	}
	return false
}

// EqualBits reports whether a and b hold the same float64s bit for bit, so
// that -0 differs from +0 and one NaN payload from another: the equality a
// State compares its floats with. Two slices of one array are equal at once.
func EqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
