package mpi

// The shared-memory rendezvous of the synchronizing collectives.
//
// Every rank of a simulated world shares one address space, so a collective
// whose ranks all arrive with matching arguments can be completed in memory:
// the last rank to arrive runs the algorithm's data flow over the ranks'
// accumulators and wakes the others, with no message between ranks. A
// 32-rank recursive-doubling Allreduce is otherwise 160 posts, each a lock, a
// wake and a park, and the dissemination Barrier another 160.
//
// An instance is keyed by (comm handle, seq), the pair that keys its internal
// tags. It stays clean while every arrival is a member of the communicator
// through a rendezvous call (Barrier, or Allreduce on a power-of-two
// communicator) with the type, count, datatype and op of the first. Any
// other arrival flips it to messages for good: the ranks waiting there wake,
// and every rank runs the message algorithm from its first round. Once every
// member has arrived at a clean instance its last arrival completes it.
//
// Every live entry books its arrival, under World.mu: the thirteen
// collectives through enter (joinSeq) or, for a rendezvous call, meet, and
// CommDup and CommSplit through joinSeq. A member's booking is its progress
// on the communicator (commInfo.arrived); only a clean instance has a record.
// A rendezvous call opening a record flips the instance instead when some
// member has already passed it, since that member can only have come through
// another call; any other arrival flips the clean instance open at its seq,
// if there is one. A caller outside the communicator books nothing: it flips
// a clean instance it finds open, and one it precedes may still complete
// clean, which is the schedule in which its messages, addressed to members
// that never look for them, arrive after theirs.
//
// No verdict can move. An instance's messages carry its (comm, seq) tags, so
// only ranks at that instance ever consume them, and holding them all back
// until every rank has entered is one legal schedule of the message
// algorithm; outcomes do not depend on the schedule. Neither a Barrier nor an
// Allreduce completes on any rank before every rank has arrived, so that
// schedule loses nothing. Bcast, Reduce, Gather, Scatter and Scan stay on
// messages: their roots and leaves return before their peers arrive, and
// making those ranks wait would remove schedules in which they go on to
// unblock a peer.
//
// A rank waits in park, as every waiting rank does, and takes delivery of
// its messages meanwhile as a receive would.
//
// The rendezvous is off on a faulty world (a Network or CrashedRanks), whose
// messages can be lost, and with DisablePooling, which keeps the runtime's
// reference path: there the pooled ≡ unpooled differential suites prove
// rendezvous ≡ messages.

// signature is what an arrival must share with an instance's first to keep
// it clean. Barrier reads no count, datatype or op, so its signature carries
// none.
type signature struct {
	t     CollType
	count int32
	dt    Datatype
	op    Op
}

// meeting is one clean instance some member has entered.
type meeting struct {
	comm    Comm
	seq     int64
	sig     signature
	claimed int      // members arrived
	slots   []*Rank  // by comm rank
	accs    [][]byte // by comm rank: an Allreduce arrival's accumulator
}

// meetState is how the meeting a rank waits in ended, set under World.mu by
// the rank that ended it.
type meetState uint8

const (
	meetPending meetState = iota
	meetDone              // its accumulator holds the result
	meetFlipped           // run the message algorithm
)

// meetCounts tallies a run's rendezvous calls, for the tests: instances
// completed in memory, and arrivals that ran on messages. Guarded by
// World.mu.
type meetCounts struct {
	clean, flipped int
}

// rendezvous reports whether a call of type t on a size-rank communicator
// can complete in the rendezvous.
func (w *World) rendezvous(t CollType, size int) bool {
	return w.meetOn && (t == CollBarrier || t == CollAllreduce && size&(size-1) == 0)
}

// joinSeq takes the rank's next sequence number on comm for a live entry and
// books the arrival there, flipping the clean instance open at that seq,
// unless the call meets: a rendezvous call's arrival is booked by meet, with
// its accumulator. Nothing runs in between but the read of its send buffer,
// and a segfault there ends the job.
func (r *Rank) joinSeq(ci *commInfo, comm Comm, me int, meets bool) int64 {
	seq := r.nextSeq(comm)
	w := r.world
	if !w.meetOn || meets {
		return seq
	}
	w.mu.Lock()
	if ci.members[me] == r.id {
		ci.arrived[me] = seq + 1
	}
	if m := w.find(comm, seq); m != nil {
		w.end(r, m, meetFlipped)
	}
	w.mu.Unlock()
	r.wakeWoken()
	return seq
}

// meet enters c's instance with the rank's accumulator (nil for Barrier) and
// reports whether the rendezvous completed it, leaving the result in acc.
// False means the instance is on messages: the caller runs the message
// algorithm from its first round.
func (c *collCall) meet(acc []byte) bool {
	if !c.meets {
		return false
	}
	r, ci, me := c.r, c.ci, c.me
	w := r.world
	sig := signature{t: c.t}
	if c.t == CollAllreduce {
		sig.count, sig.dt, sig.op = c.Count, c.Dtype, c.Op
	}
	member := ci.members[me] == r.id
	w.mu.Lock()
	m := w.find(c.Comm, c.seq)
	switch {
	case m == nil && member && !w.passed(ci, c.seq):
		m = w.open(c.Comm, c.seq, len(ci.members), sig)
	case m != nil && (!member || sig != m.sig):
		w.end(r, m, meetFlipped)
		m = nil
	}
	if member {
		ci.arrived[me] = c.seq + 1
	}
	if m == nil {
		w.met.flipped++
		w.mu.Unlock()
		r.wakeWoken()
		return false
	}
	m.slots[me], m.accs[me] = r, acc
	m.claimed++
	if m.claimed < len(m.slots) {
		// A waiter takes delivery as a receive on messages would: what
		// arrives moves to pending, and draining a full inbox wakes the
		// sender parked on it. No message matches tag -1.
		none := matcher{tag: -1}
		for r.meeting == meetPending {
			r.take(&none)
			r.park()
		}
		done := r.meeting == meetDone
		r.meeting = meetPending
		w.mu.Unlock()
		return done
	}
	if acc != nil {
		// Recursive doubling: in round mask, ranks p and p^mask each combine
		// their own accumulator with the other's as it stood before the
		// round, in that operand order. It runs under mu, which is safe:
		// every other member waits in this instance, validate has checked
		// the count, datatype and op, and each accumulator is exactly
		// count×size bytes, so combinePair cannot panic holding the lock.
		for mask := 1; mask < len(m.accs); mask <<= 1 {
			for p := range m.accs {
				if q := p ^ mask; p < q {
					combinePair(c.Op, c.Dtype, m.accs[p], m.accs[q], int(c.Count))
				}
			}
		}
	}
	w.end(r, m, meetDone)
	w.mu.Unlock()
	r.wakeWoken()
	return true
}

// passed reports whether some member of ci has entered instance seq: with
// no record of it open, through a call that flipped it. Called under mu.
func (w *World) passed(ci *commInfo, seq int64) bool {
	for _, n := range ci.arrived {
		if n > seq {
			return true
		}
	}
	return false
}

// end retires clean instance m, completed (meetDone) or flipped to messages,
// and tells each rank waiting there how it ended: it un-parks the parked
// ones into r.woken, for r to signal once it has let go of mu (wakeWoken).
// Called under mu.
func (w *World) end(r *Rank, m *meeting, how meetState) {
	for _, rk := range m.slots {
		if rk != nil && rk != r {
			rk.meeting = how
			if w.unpark(rk) {
				r.woken = append(r.woken, rk)
			}
		}
	}
	if how == meetDone {
		w.met.clean++
	} else {
		w.met.flipped += m.claimed
	}
	w.close(m)
}

// wakeWoken signals the ranks end un-parked into r.woken. Called after r lets
// go of World.mu, so a woken rank does not wake into a lock its waker still
// holds.
func (r *Rank) wakeWoken() {
	for _, rk := range r.woken {
		rk.signal()
	}
	clear(r.woken)
	r.woken = r.woken[:0]
}

// find returns the record of clean instance (comm, seq), or nil. There are
// at most as many as ranks waiting. Called under mu.
func (w *World) find(comm Comm, seq int64) *meeting {
	for _, m := range w.meetings {
		if m.seq == seq && m.comm == comm {
			return m
		}
	}
	return nil
}

// open records clean instance (comm, seq) with its first arrival's
// signature. Called under mu.
func (w *World) open(comm Comm, seq int64, size int, sig signature) *meeting {
	var m *meeting
	if k := len(w.spare); k > 0 {
		m, w.spare = w.spare[k-1], w.spare[:k-1]
	} else {
		m = new(meeting)
	}
	m.comm, m.seq, m.sig, m.claimed = comm, seq, sig, 0
	if cap(m.slots) < size {
		m.slots, m.accs = make([]*Rank, size), make([][]byte, size)
	}
	m.slots, m.accs = m.slots[:size], m.accs[:size]
	w.meetings = append(w.meetings, m)
	return m
}

// close retires m's record, completed or flipped, and keeps it for reuse.
// Called under mu.
func (w *World) close(m *meeting) {
	i := 0
	for w.meetings[i] != m {
		i++
	}
	last := len(w.meetings) - 1
	w.meetings[i], w.meetings[last] = w.meetings[last], nil
	w.meetings = w.meetings[:last]
	clear(m.slots)
	clear(m.accs)
	w.spare = append(w.spare, m)
}

// closeMeetings retires the records a finished run left open and clears the
// world communicator's progress, so the shell's tables serve its next run.
// Called once every rank goroutine has been joined.
func (w *World) closeMeetings() {
	for len(w.meetings) > 0 {
		w.close(w.meetings[0])
	}
	clear(w.comms[0].arrived)
}
