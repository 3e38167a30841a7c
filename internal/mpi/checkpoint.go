package mpi

import (
	"maps"
	"slices"
)

// Fork-at-injection-site execution, part 4: resume from the last checkpoint.
//
// The tape serves a forked run's prefix communication, but every rank still
// recomputes its prefix from t=0, and for a fault late in the run that is
// nearly a whole golden run. An application that can name its state at a
// program point — the top of an outer iteration — checkpoints it there. The
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
// concurrent trials never see each other's writes.
type State interface {
	Clone() State
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
	libSeq      map[string]int
	phase       Phase
	errHandling bool
	rng         *fibSource // the default Rand stream, when it is live
	reported    []float64
}

// Checkpoint records s as the rank's state at this point of the run. Only a
// recording run keeps it (RunOptions.Record); every other run ignores the
// call, so applications checkpoint unconditionally. Call it where the
// program can restart: at the top of an outer iteration, outside any
// collective or ErrCheck region.
func (r *Rank) Checkpoint(s State) {
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
		libSeq:      maps.Clone(r.libSeq),
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
	r.libSeq = copyInto(r.libSeq, ck.libSeq)
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
