package mpi

import (
	"bytes"
	"fmt"
	"slices"
)

// Fork-at-injection-site execution, part 2: the consistent cut and replay.
//
// A Fork is a snapshot of the golden run's communication taken at one
// injection site: per-rank positions ("the cut") splitting each tape into a
// replayed prefix and a live suffix, plus the prestocked messages that
// bridge the two. Forked ranks serve the prefix from the tape — no channel
// operations, no blocking, no stack captures — and switch to live execution
// at their cut, with bookkeeping (invocation counters, collective sequence
// numbers, work charges) mirrored exactly so the injector fires at the same
// call and post-cut execution is byte-identical to a full replay.
//
// The cut must be causally consistent: no replayed event may depend on a
// live one. Starting from "the faulted collective on the faulted rank goes
// live", two rules propagate liveness until a fixpoint:
//
//  1. p2p: a receive whose matching send is live must itself be live (the
//     message's content could differ once faults are in play, and the live
//     sender really will send it).
//  2. collectives: one instance (identified by its CommWorld sequence
//     number) is live or replayed uniformly across all ranks — a collective
//     half served from tape and half executed live would deadlock.
//
// Cuts only ever move earlier during propagation, so the fixpoint
// terminates. Conversely, a replayed receive whose send is also replayed
// needs no message at all, and a live receive whose matching send was
// replayed is fed by prestock: the golden payload is placed in the
// receiver's pending queue at go-live, ahead of any live arrivals — the
// same order a real run would see, since a sender's pre-cut messages always
// precede its post-cut ones in inbox arrival order.

// prestockEntry is one golden message a forked rank must find in its
// pending queue when it goes live: its matching send is replayed (never
// actually sent) but its receive is live.
type prestockEntry struct {
	comm   Comm
	src    int32 // rank within comm
	tag    int64
	off, n int32 // payload span in the receiving rank's tape data
}

// Fork is an immutable injection-prefix snapshot, shared by every trial at
// its injection point. Build one with Trace.Fork.
type Fork struct {
	trace    *Trace
	cut      []int
	prestock [][]prestockEntry
	// resume[r] is rank r's latest checkpoint at or before its cut, nil
	// when it has none and replays from t=0 (part 4, checkpoint.go).
	resume []*checkpoint

	// The reconvergence cut (part 3 below). rank is the rank the fork was cut
	// for, seq the CommWorld sequence number of the collective instance its
	// fault is addressed to, and at[r] that instance's position on rank r's
	// tape. at is nil — the fork never ends a run early — when a rank's tape
	// does not hold the instance.
	rank int
	seq  int64
	at   []int
}

// Cut returns rank's first live tape position (diagnostics).
func (f *Fork) Cut(rank int) int {
	if f == nil || rank < 0 || rank >= len(f.cut) {
		return 0
	}
	return f.cut[rank]
}

// Fork computes the injection-prefix snapshot for a fault addressed to the
// collective at (rank, site, invocation). It returns nil when the trace is
// not forkable or the addressed call does not appear on the tape (the
// trial then falls back to full replay).
func (t *Trace) Fork(rank int, site uintptr, invocation int) *Fork {
	if !t.Forkable() || rank < 0 || rank >= len(t.ranks) {
		return nil
	}
	// The faulted event: the invocation'th collective at site on rank.
	pos := -1
	for i, ev := range t.ranks[rank].events {
		if ev.kind == evColl && ev.site == site && ev.inv == int32(invocation) {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil
	}

	n := len(t.ranks)
	cut := make([]int, n)
	// Index each rank's collective instances by sequence number. Forkable
	// traces use CommWorld only, so the sequence number alone identifies an
	// instance across ranks.
	collPos := make([]map[int64]int, n)
	for r := 0; r < n; r++ {
		cut[r] = len(t.ranks[r].events)
		m := make(map[int64]int)
		for i, ev := range t.ranks[r].events {
			if ev.kind == evColl {
				m[ev.seq] = i
			}
		}
		collPos[r] = m
	}
	cut[rank] = pos

	for changed := true; changed; {
		changed = false
		// Rule 1: a replayed receive fed by a live send goes live.
		for r := 0; r < n; r++ {
			for i, ev := range t.ranks[r].events {
				if i >= cut[r] {
					break
				}
				if ev.kind == evRecv && int(ev.sendPos) >= cut[ev.sender] {
					cut[r] = i
					changed = true
					break
				}
			}
		}
		// Rule 2: collective instances are uniformly live or replayed.
		for r := 0; r < n; r++ {
			for seq, p := range collPos[r] {
				if p < cut[r] {
					continue // replayed on r; only live instances propagate
				}
				for r2 := 0; r2 < n; r2++ {
					if p2, ok := collPos[r2][seq]; ok && p2 < cut[r2] {
						cut[r2] = p2
						changed = true
					}
				}
			}
		}
	}

	// Prestock: live receives whose matching send is replayed.
	prestock := make([][]prestockEntry, n)
	for r := 0; r < n; r++ {
		for _, ev := range t.ranks[r].events[cut[r]:] {
			if ev.kind == evRecv && int(ev.sendPos) < cut[ev.sender] {
				prestock[r] = append(prestock[r], prestockEntry{
					comm: ev.comm, src: ev.peer, tag: ev.tag, off: ev.off, n: ev.n,
				})
			}
		}
	}
	resume := make([]*checkpoint, n)
	for r := range resume {
		resume[r] = resumeFrom(t.ranks[r].ckpts, cut[r])
	}
	f := &Fork{trace: t, cut: cut, prestock: prestock, resume: resume, rank: rank, seq: t.ranks[rank].events[pos].seq}
	f.at = make([]int, n)
	for r := range f.at {
		p, ok := collPos[r][f.seq]
		if !ok {
			f.at = nil
			break
		}
		f.at[r] = p
	}
	return f
}

// replayState is one rank's in-progress prefix replay. It lives on the
// rank for the replayed portion of a forked run and is cleared at go-live.
// resume is the checkpoint the rank may start from, until Resume takes it.
type replayState struct {
	fork   *Fork
	tape   *rankTape
	pos    int
	cut    int
	resume *checkpoint
}

// bindFork arms every rank of a freshly bound world to replay its prefix
// and, where the fork allows it, to end the run at the faulted collective.
func (w *World) bindFork(f *Fork) {
	w.fork = f
	cutSeq := int64(-1)
	if f.at != nil {
		cutSeq = f.seq
	}
	for i, rk := range w.ranks {
		rk.replay = &replayState{fork: f, tape: &f.trace.ranks[i], cut: f.cut[i], resume: f.resume[i]}
		rk.cutSeq = cutSeq
	}
}

// replayActive reports whether the rank is still inside its replayed
// prefix, transitioning to live execution at the cut. Every intercepted
// operation calls this first, so prestock happens before the first live
// operation needs it.
func (r *Rank) replayActive() bool {
	rs := r.replay
	if rs == nil {
		return false
	}
	if rs.pos < rs.cut {
		return true
	}
	r.goLive()
	return false
}

// goLive ends the rank's replay: golden messages whose sends were replayed
// are placed in the pending queue (in tape order, which for any one
// sender+tag is also golden arrival order), and subsequent operations
// execute normally. Live arrivals already sitting in the inbox are
// consumed after pending, exactly matching arrival order per sender.
// The prestocked messages borrow their tape spans (message.tape): a typed
// receive decodes them where they lie, and only a raw receive, which gives
// the bytes away, copies.
func (r *Rank) goLive() {
	rs := r.replay
	r.replay = nil
	for _, pe := range rs.fork.prestock[r.id] {
		r.pending = append(r.pending, message{
			comm: pe.comm, src: int(pe.src), tag: pe.tag,
			data: rs.tape.span(pe.off, pe.n), tape: true,
		})
	}
}

// replayNext consumes the next tape event, checking the kind invariant: a
// forked run's pre-cut operations must match the tape exactly, because the
// prefix is byte-identical to the golden run by construction. A mismatch
// is a harness bug, not an application outcome.
func (rs *replayState) replayNext(kind uint8, what string) *traceEvent {
	ev := &rs.tape.events[rs.pos]
	if ev.kind != kind {
		panic(Divergence{Detail: fmt.Sprintf("%s at tape position %d holds kind %d", what, rs.pos, ev.kind)})
	}
	rs.pos++
	return ev
}

// replaySend serves a user Send from the tape: the payload was already
// delivered to the (also replaying) receiver's tape, so nothing moves.
func (r *Rank) replaySend() {
	r.replay.replayNext(evSend, "Send")
}

// replayRecv serves a user Recv from the tape, returning a fresh copy of
// the golden payload (live Recv hands the application a private copy made
// at send time, so replay must too).
func (r *Rank) replayRecv() []byte {
	ev := r.replay.replayNext(evRecv, "Recv")
	data := make([]byte, ev.n)
	copy(data, r.replay.tape.span(ev.off, ev.n))
	return data
}

// replayCollective serves one collective from the tape into the buffer the
// live algorithm would have written: Bcast's result lands in its one
// buffer (send), every other collective's in recv (collResultSpan).
func (r *Rank) replayCollective(t CollType, send, recv *Buffer, comm Comm) {
	if span := r.replayCollectiveBytes(t, comm); span != nil {
		dst := recv
		if t == CollBcast {
			dst = send
		}
		dst.WriteAt("fork replay", 0, span)
	}
}

// replayCollectiveBytes serves one collective from the tape without going
// through simulated buffers: it mirrors the live path's bookkeeping — the
// work-budget charge, the per-site invocation counter (from the recorded
// site, so the injector's addressed invocation index stays exact) and the
// per-comm sequence number — and returns the recorded local result span
// (nil when the call had none: Barrier, or a non-root rank of a rooted
// operation). The convenience wrappers decode results straight off the
// immutable tape with it, skipping the marshal + result-copy + decode
// round-trip a live call needs.
func (r *Rank) replayCollectiveBytes(t CollType, comm Comm) []byte {
	r.Tick(collectiveWorkCharge)
	ev := r.replay.replayNext(evColl, t.String())
	if ev.coll != t {
		panic(Divergence{Detail: fmt.Sprintf("tape holds %v, application called %v", ev.coll, t)})
	}
	r.invents[ev.site]++
	r.nextSeq(comm)
	if ev.n == 0 {
		return nil
	}
	return r.replay.tape.span(ev.off, ev.n)
}

// Fork-at-injection-site execution, part 3: the reconvergence cut.
//
// Most faults a campaign draws are masked at the call they corrupt: the
// flipped bit is overwritten by the result, lies in an operand the reduction
// ignores, or perturbs a parameter whose change this rank's role never
// reads. Such a trial would run the whole golden suffix only to be
// classified SUCCESS. A forked run ends instead at the collective instance
// its fork was cut for, once three conditions hold:
//
//  1. every rank has completed that instance (a rank that failed, or still
//     waits for a message the fault misrouted, never reports);
//  2. on every rank the bytes the golden call wrote — the tape's recorded
//     result span — are what the buffer now holds;
//  3. on the faulted rank nothing else the call could touch differs from a
//     snapshot taken before the hook ran: the result buffer outside the
//     span, the whole other buffer, the four count/displacement vectors.
//     Scalar parameters live in the runtime's private Args copy and die
//     with the call.
//
// An unfaulted rank needs only condition 2: its arguments are the golden
// run's, so the algorithm cannot write outside the span whatever its peers
// sent it (an oversized message is MPI_ERR_TRUNCATE, a short one leaves
// golden pre-call bytes). Every rank's memory is then the golden run's at
// the same program point, every user message in flight was sent from golden
// state, and the rest of the run is the golden suffix by construction, so
// Run returns the recording run's own per-rank results with
// RunResult.Reconverged set. What the faulted instance may leave behind in
// a mailbox — a block sent to a peer that never posted the receive — is
// inert: internal tags carry the instance's sequence number, every later
// collective uses a later one, and user receives match user tags only.
//
// A flip that outlives the call in application memory fails condition 3 on
// its own: an application-owned send buffer, a counts[] vector (the slices
// alias the caller's), a receive-buffer bit the call never writes (non-root
// Reduce/Gather). The convenience wrappers' send buffers, and the receive
// buffer of ReduceFloat64s on a non-root, are runtime temporaries, released
// before the wrapper returns and never read by the application; they are
// marked (Buffer.temp) and not compared.
//
// The contract this rests on is Fork's: a hook run with RunOptions.Fork
// mutates only the call the fork was built for.

// goldenSpan is the result the golden run's faulted instance left on rank:
// the bytes at the head of resultBuffer when that call returned.
func (f *Fork) goldenSpan(rank int) []byte {
	tape := &f.trace.ranks[rank]
	ev := &tape.events[f.at[rank]]
	return tape.span(ev.off, ev.n)
}

// resultBuffer is the buffer a collective writes its local result into:
// Bcast's one buffer, every other collective's recv (collResultSpan).
func resultBuffer(t CollType, a *Args) *Buffer {
	if t == CollBcast {
		return a.Send
	}
	return a.Recv
}

// callSnapshot is the faulted rank's pre-hook record of the application
// memory the faulted call can reach, less the result span, which the tape
// holds. other is the buffer that is not the result buffer: nil for Bcast,
// which has one. Either is nil when it is a runtime temporary, which nobody
// reads again.
type callSnapshot struct {
	result, other *Buffer
	tail          []byte // result's bytes past the span
	otherMem      []byte
	vecs, vecMem  [4][]int32
}

// snapshotFaultedCall runs in enter, before the hook, while the
// run may still end at the faulted instance; it acts on the faulted rank at
// that instance only.
func (r *Rank) snapshotFaultedCall(t CollType, a *Args) {
	f := r.world.fork
	if r.id != f.rank || r.collSeq[CommWorld] != r.cutSeq {
		return
	}
	s := &callSnapshot{result: resultBuffer(t, a), vecs: [4][]int32{a.SendCounts, a.SendDispls, a.RecvCounts, a.RecvDispls}}
	if s.result != nil && s.result.temp {
		s.result = nil
	}
	if t != CollBcast && a.Send != nil && !a.Send.temp {
		s.other = a.Send
	}
	res := s.result.Bytes()
	s.tail = bytes.Clone(res[min(len(f.goldenSpan(r.id)), len(res)):])
	s.otherMem = bytes.Clone(s.other.Bytes())
	for i, v := range s.vecs {
		s.vecMem[i] = slices.Clone(v)
	}
	r.world.snap = s
}

// golden reports whether application memory after the faulted call is what
// the golden call left: the snapshot with the recorded span written over
// the head of the result buffer.
func (s *callSnapshot) golden(span []byte) bool {
	res := s.result.Bytes()
	if !bytes.HasPrefix(res, span) || !bytes.Equal(res[len(span):], s.tail) || !bytes.Equal(s.other.Bytes(), s.otherMem) {
		return false
	}
	for i, v := range s.vecs {
		if !slices.Equal(v, s.vecMem[i]) {
			return false
		}
	}
	return true
}

// reconverge runs in endCollective while the run may still end at the
// faulted instance. On that instance it compares this rank's memory with
// the golden run's and, when it is the last of the world to find them
// equal, kills the run. A rank that differs says nothing, and the run
// continues to whatever end the fault gives it.
func (r *Rank) reconverge(c *collCall) {
	if r.collSeq[CommWorld]-1 != r.cutSeq {
		return // a live instance before the faulted one
	}
	r.cutSeq = -1
	w := r.world
	span := w.fork.goldenSpan(r.id)
	if r.id == w.fork.rank {
		if !w.snap.golden(span) {
			return
		}
	} else if !bytes.HasPrefix(resultBuffer(c.t, c.Args).Bytes(), span) {
		return
	}
	w.mu.Lock()
	w.matched++
	if w.matched == w.size {
		w.kill(whyReconverged)
	}
	w.mu.Unlock()
}
