package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Fork-at-injection-site execution, part 1: trace recording.
//
// A trial whose fault fires at collective invocation k replays a prefix that
// is byte-identical to the golden run — rank state, message payloads and
// collective results are all pure functions of (seed, app, config) up to the
// injection site. Rather than re-simulating that prefix's communication
// (channel operations, collective message trees, stack captures) on every
// trial, the engine records the golden run's communication once as a Trace:
// per-rank tapes of user point-to-point events and collective results, with
// the causal edges (which send fed which receive) needed to cut the tape
// consistently at any injection site. Forked trials then serve the prefix
// from the tape (fork.go) and go live at the cut.
//
// The trace is immutable once recorded and shared by every trial of every
// point, so recording costs one extra golden-speed run per campaign.

// traceEvent kinds.
const (
	evSend uint8 = iota // user-level Send enqueued a message
	evRecv              // user-level Recv consumed a message
	evColl              // a collective completed
)

// traceEvent is one recorded communication step on one rank. The fields are
// a union over the three kinds; payload spans index the owning rank's tape
// data arena.
type traceEvent struct {
	kind uint8
	comm Comm

	// evSend: peer = destination (rank within comm).
	// evRecv: peer = source (rank within comm), sender = source world rank,
	// sendPos = position of the matching send on the sender's tape.
	peer    int32
	sender  int32
	sendPos int32
	tag     int64

	// evRecv: the consumed payload. evColl: the post-call result prefix.
	off, n int32

	// evColl context, mirrored into forked trials so invocation counters,
	// sequence numbers and work charges stay identical to a live run.
	coll CollType
	site uintptr
	inv  int32
	seq  int64
}

// rankTape is one rank's recorded event sequence plus its payload arena,
// and the checkpoints the application took along it, in tape order
// (checkpoint.go).
type rankTape struct {
	events []traceEvent
	data   []byte
	ckpts  []checkpoint
}

func (t *rankTape) span(off, n int32) []byte {
	return t.data[off : off+n]
}

// Trace is one application configuration's recorded golden communication.
// It is immutable after Run returns and safe for concurrent use.
type Trace struct {
	ranks  []rankTape
	broken bool
	reason string
	// golden is the recording run's per-rank results: what a forked run
	// that reconverges at its faulted call returns (fork.go, part 3).
	golden []RankResult
}

// Forkable reports whether the trace can serve forked trials. Traces of
// applications that use features outside the replayable core — nonblocking
// operations, wildcard receives, derived communicators, failure detection,
// or a faulty network during recording — are marked unusable, and every
// trial of that campaign falls back to full replay.
func (t *Trace) Forkable() bool { return t != nil && !t.broken }

// Reason explains why the trace is not forkable ("" when it is).
func (t *Trace) Reason() string {
	if t == nil {
		return "no trace recorded"
	}
	return t.reason
}

// DataBytes returns the total payload bytes captured across all tapes.
func (t *Trace) DataBytes() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.ranks {
		n += len(t.ranks[i].data)
	}
	return n
}

// traceRecorder accumulates per-rank tapes during a recording run. Each
// rank appends to its own tape from its own goroutine; the only shared
// state is the poison flag, which is atomic.
type traceRecorder struct {
	ranks  []rankTape
	dead   atomic.Bool
	mu     sync.Mutex
	reason string
}

func newTraceRecorder(n int) *traceRecorder {
	return &traceRecorder{ranks: make([]rankTape, n)}
}

// poison marks the trace unusable. Recording stops (the tapes would be
// garbage) but the run itself continues unaffected.
func (rec *traceRecorder) poison(reason string) {
	rec.mu.Lock()
	if rec.reason == "" {
		rec.reason = reason
	}
	rec.mu.Unlock()
	rec.dead.Store(true)
}

func (rec *traceRecorder) finish(results []RankResult) *Trace {
	t := &Trace{ranks: rec.ranks, broken: rec.dead.Load(), reason: rec.reason, golden: results}
	if t.broken {
		t.ranks, t.golden = nil, nil // the partial tapes are unusable; don't retain them
	}
	return t
}

// recordSend appends a send event on the sender's tape and returns its
// position, which post threads through the message so the receiver can
// record the causal edge. Called from the sending rank's goroutine.
func (rec *traceRecorder) recordSend(rank int, comm Comm, dst int, tag int64) int32 {
	if rec.dead.Load() {
		return -1
	}
	tape := &rec.ranks[rank]
	pos := int32(len(tape.events))
	tape.events = append(tape.events, traceEvent{
		kind: evSend, comm: comm, peer: int32(dst), tag: tag,
	})
	return pos
}

// recordRecv appends a receive event (payload copied into the tape arena)
// on the receiving rank's tape. senderWorld/sendPos identify the matching
// send on the sender's tape. Called from the receiving rank's goroutine.
func (rec *traceRecorder) recordRecv(rank int, comm Comm, srcInComm, senderWorld int, tag int64, sendPos int32, payload []byte) {
	if rec.dead.Load() {
		return
	}
	if sendPos < 0 {
		// The matching send was not recorded (it predates recording or came
		// from an unrecorded path); the causal edge is unknown.
		rec.poison("receive matched an untraced send")
		return
	}
	tape := &rec.ranks[rank]
	off := int32(len(tape.data))
	tape.data = append(tape.data, payload...)
	tape.events = append(tape.events, traceEvent{
		kind: evRecv, comm: comm,
		peer: int32(srcInComm), sender: int32(senderWorld), sendPos: sendPos,
		tag: tag, off: off, n: int32(len(payload)),
	})
}

// recordCollective appends a collective event with the call's post-run
// result prefix. Called from endCollective on the rank's own goroutine,
// after the collective has written its results.
func (rec *traceRecorder) recordCollective(r *Rank, call *CollectiveCall) {
	if rec.dead.Load() {
		return
	}
	if call.Args.Comm != CommWorld {
		rec.poison("collective on a derived communicator")
		return
	}
	buf, n := collResultSpan(r, call)
	tape := &rec.ranks[r.id]
	ev := traceEvent{
		kind: evColl, comm: call.Args.Comm,
		coll: call.Type, site: call.Site, inv: int32(call.Invocation),
		seq: r.collSeq[call.Args.Comm] - 1,
	}
	if n > 0 && buf != nil {
		// Clamp to the real region: anything past it was heap slack in the
		// golden run too, so forked trials reproduce it for free.
		if n > len(buf.mem) {
			n = len(buf.mem)
		}
		ev.off = int32(len(tape.data))
		ev.n = int32(n)
		tape.data = append(tape.data, buf.mem[:n]...)
	}
	tape.events = append(tape.events, ev)
}

// collResultSpan returns the buffer a completed collective wrote its local
// result into and the length of the written prefix. Gaps inside the prefix
// (Gatherv/Alltoallv displacements) hold pre-call bytes, which are
// golden-identical in a forked trial, so recording the whole prefix is
// exact. A nil buffer / zero length means the call has no local result
// (Barrier; non-root ranks of rooted gather/reduce operations).
func collResultSpan(r *Rank, call *CollectiveCall) (*Buffer, int) {
	a := call.Args
	ci := r.commDeref(a.Comm)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	esz := a.Dtype.Size()
	switch call.Type {
	case CollBarrier:
		return nil, 0
	case CollBcast:
		return a.Send, int(a.Count) * esz
	case CollAllreduce, CollScan:
		return a.Recv, int(a.Count) * esz
	case CollReduce:
		if me == int(a.Root) {
			return a.Recv, int(a.Count) * esz
		}
		return nil, 0
	case CollScatter, CollScatterv:
		return a.Recv, int(a.Count) * esz
	case CollGather:
		if me == int(a.Root) {
			return a.Recv, size * int(a.Count) * esz
		}
		return nil, 0
	case CollGatherv:
		if me == int(a.Root) {
			end := 0
			for p := 0; p < size && p < len(a.RecvCounts) && p < len(a.RecvDispls); p++ {
				if e := int(a.RecvDispls[p]+a.RecvCounts[p]) * esz; e > end {
					end = e
				}
			}
			return a.Recv, end
		}
		return nil, 0
	case CollAllgather, CollAlltoall:
		return a.Recv, size * int(a.Count) * esz
	case CollAlltoallv:
		end := 0
		for p := 0; p < size && p < len(a.RecvCounts) && p < len(a.RecvDispls); p++ {
			if e := int(a.RecvDispls[p]+a.RecvCounts[p]) * esz; e > end {
				end = e
			}
		}
		return a.Recv, end
	case CollReduceScatter:
		if me < len(a.RecvCounts) {
			return a.Recv, int(a.RecvCounts[me]) * esz
		}
		return nil, 0
	}
	return nil, 0
}

// String summarises the trace for diagnostics.
func (t *Trace) String() string {
	if t == nil {
		return "Trace(nil)"
	}
	if t.broken {
		return fmt.Sprintf("Trace(unforkable: %s)", t.reason)
	}
	ev := 0
	for i := range t.ranks {
		ev += len(t.ranks[i].events)
	}
	return fmt.Sprintf("Trace(%d ranks, %d events, %d payload bytes)", len(t.ranks), ev, t.DataBytes())
}
