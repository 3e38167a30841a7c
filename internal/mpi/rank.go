package mpi

import "math/rand"

// Phase labels the coarse execution phase of the application, one of the
// application features FastFIT correlates with fault sensitivity.
type Phase int32

const (
	PhaseInit    Phase = 0 // startup, option parsing, communicator setup
	PhaseInput   Phase = 1 // problem generation / input reading
	PhaseCompute Phase = 2 // main iteration loop
	PhaseEnd     Phase = 3 // verification, output, teardown
)

var phaseNames = [...]string{"init", "input", "compute", "end"}

func (p Phase) String() string {
	if p >= 0 && int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// AnyTag matches a message with any user tag in Recv.
const AnyTag = -1

// maxUserTag bounds application-visible tags so internal collective traffic
// can use a disjoint namespace.
const maxUserTag = 1 << 20

// message is one point-to-point payload in flight. pooled, when non-nil,
// is the arena slab backing data, and whoever consumes the message decides
// the slab's fate (the ownership rule, see pool.go): an internal collective
// or a typed receive (RecvFloat64sInto) decodes the bytes and recycles it;
// a raw Recv hands the bytes to the application, so the slab leaves the
// arena with them and is an ordinary GC object from then on.
type message struct {
	comm   Comm
	src    int // rank within comm
	tag    int64
	data   []byte
	pooled *slab
	// tracePos is the sender's tape position of this message's send event
	// when a trace is being recorded (-1 when it is not): the causal edge
	// the fork cut computation needs (see trace.go).
	tracePos int32
	// tape marks a prestocked go-live message whose data aliases the
	// immutable golden tape (see goLive): readable in place, never handed
	// to the application.
	tape bool
	// ck is the sender's checkpoint epoch when it sent the message (see
	// Rank.ckEpoch); 0 for a prestocked one, sent before the fork's fault.
	ck int64
}

// recycle returns the message's pooled payload to the arena. Safe to call
// on any message; only arena-backed ones carry a slab.
func (m *message) recycle() {
	if m.pooled != nil {
		putSlab(m.pooled)
		m.pooled = nil
		m.data = nil
	}
}

// payload hands the message's bytes to the application, which may keep and
// mutate them. A slab-backed payload is given away as it is; one borrowed
// from the golden tape is copied first, because the tape is shared by every
// trial of the campaign.
func (m *message) payload() []byte {
	if !m.tape {
		return m.data
	}
	cp := make([]byte, len(m.data))
	copy(cp, m.data)
	return cp
}

// Rank is the per-process handle an application's rank function receives.
// It is confined to its own goroutine; the runtime performs all cross-rank
// communication through the ranks' inboxes, under World.mu.
type Rank struct {
	world *World
	id    int // world rank

	// inbox holds, in arrival order, the messages no receive has examined
	// yet (at most RunOptions.MailboxCap); pending holds the ones a receive
	// passed over, oldest first. parked marks a rank waiting in park, and
	// wake is the one-slot channel its waker signals. inbox and parked are
	// guarded by World.mu.
	inbox   []message
	pending []message
	parked  bool
	wake    chan struct{}

	// meeting is how the rendezvous the rank waits in ended (rendezvous.go),
	// set under World.mu by the rank that ended it; woken is that rank's
	// scratch list of the ranks it un-parked, to signal after unlocking.
	meeting meetState
	woken   []*Rank

	// rnd backs Rand, the deterministic per-rank random source seeded from
	// the run options. It draws from rngSrc, whose cached seeding makes
	// per-run reseeding cheap (rng.go), and is seeded lazily on first use:
	// apps that only draw through SeededRand never pay the default
	// generator's ~5 KB state copy at bind time.
	rnd     *rand.Rand
	rndSeed int64
	rndLive bool // rnd is seeded for the current run
	rngSrc  fibSource

	phase       Phase
	errHandling bool

	collSeq map[Comm]int64 // per-communicator collective sequence numbers
	invents map[uintptr]int

	work   int64 // accumulated work units (see Tick)
	budget int64

	reported []float64

	// Arena state (see pool.go). owned tracks pooled Buffers handed out
	// this run; bufFree recycles Buffer headers across runs; statics are
	// the application's class-sized arrays (Static); frame/p2p are the
	// reusable hook records; stacks memoises trimmed call stacks.
	owned   []*Buffer
	bufFree []*Buffer
	statics []static
	frame   collFrame
	p2p     p2pFrame
	stacks  map[uint64]stackEntry

	// pcbuf is the persistent runtime.Callers scratch: a stack-local
	// [64]uintptr would escape through lookupStack and cost one heap
	// allocation per collective call (the alloc-budget tests pin this).
	pcbuf [64]uintptr

	// replay, when non-nil, serves this rank's communication from a golden
	// trace until the fork cut is reached (see fork.go).
	replay *replayState

	// cutSeq, while non-negative, is the CommWorld sequence number of the
	// collective instance a forked run may end at (see fork.go, part 3). -1
	// in every other run, and on a rank that has passed the instance.
	cutSeq int64

	// ckEpoch is the CommWorld sequence number of the rank's last
	// checkpoint plus one, 0 before its first; every message it sends
	// carries it. ckNext, in a forked run that may end at a checkpoint, is
	// the next of the trace's eligible checkpoints the rank may match; -1
	// in every other run (checkpoint.go, part 6).
	ckEpoch int64
	ckNext  int

	// appRand/appSrc back SeededRand, the cheap per-run application RNG.
	appRand *rand.Rand
	appSrc  fibSource
}

// park waits, with World.mu held on entry and on return, until a delivery,
// a drain of a full inbox, a death mark, a rendezvous or a kill wakes the
// rank. It counts the rank parked first, so the park that freezes the run is
// the one that ends it. A killed world's rank dies here, before it would
// sleep and after it wakes; kill wakes every parked rank, so the one-slot
// wake channel is all a rank sleeps on. A forked run's rank parks only
// once its held peers run (fork.go, part 5), so a held run never reads as
// frozen.
func (r *Rank) park() {
	w := r.world
	if w.why == NotKilled {
		if w.held {
			w.release()
		}
		r.parked = true
		w.parked++
		w.decide()
		w.mu.Unlock()
		<-r.wake
		w.mu.Lock()
	}
	if w.why != NotKilled {
		w.mu.Unlock()
		panic(w.killErr)
	}
}

// Tick charges units of computational work to the rank's budget. Applications
// call it in their outer loops with a cost estimate before performing the
// work. When a corrupted parameter inflates the workload past the budget the
// rank dies with Killed — the simulated equivalent of the batch scheduler
// killing a job that stopped making progress, which the classifier reports
// as INF_LOOP. Tick also observes world cancellation, so compute-bound
// ranks terminate promptly when a peer has already crashed.
func (r *Rank) Tick(units int) {
	if r.world.killed() {
		panic(r.world.killErr)
	}
	r.work += int64(units)
	if r.budget > 0 && r.work > r.budget {
		panic(Killed{Reason: "work budget exhausted: runaway execution killed"})
	}
}

// SeededRand returns a deterministic generator seeded with seed, with the
// exact stream of rand.New(rand.NewSource(seed)). Applications that derive
// a per-rank problem stream from their config seed should use it instead
// of rand.NewSource: seeding the stdlib source costs ~12 µs, which a
// 32-rank campaign trial pays 32 times per run, while SeededRand restores
// a cached state (see rng.go). The returned generator is only valid until
// the next SeededRand call on this rank; call it once per run.
func (r *Rank) SeededRand(seed int64) *rand.Rand {
	if r.appRand == nil {
		r.appRand = rand.New(&r.appSrc)
	}
	r.appRand.Seed(seed)
	return r.appRand
}

// Rand returns the rank's default deterministic random source, seeded from
// the run options so repeated runs are bit-for-bit reproducible (the exact
// stream of rand.New(rand.NewSource(s)) for the rank's derived seed, see
// rankSeed). Seeding happens on the first call of each run; apps that never
// draw from it pay nothing.
func (r *Rank) Rand() *rand.Rand {
	if r.rnd == nil {
		r.rnd = rand.New(&r.rngSrc)
	}
	if !r.rndLive {
		r.rnd.Seed(r.rndSeed)
		r.rndLive = true
	}
	return r.rnd
}

// ID returns the world rank of this process.
func (r *Rank) ID() int { return r.id }

// NumRanks returns the size of the world communicator.
func (r *Rank) NumRanks() int { return r.world.size }

// SetPhase records the application's current execution phase.
func (r *Rank) SetPhase(p Phase) { r.phase = p }

// Phase returns the current execution phase.
func (r *Rank) Phase() Phase { return r.phase }

// SetErrHandling marks subsequent collectives as belonging to the
// application's error-handling code (e.g. a consistency-check Allreduce).
func (r *Rank) SetErrHandling(on bool) { r.errHandling = on }

// ErrCheck runs fn with the error-handling annotation set, restoring the
// previous value afterwards.
func (r *Rank) ErrCheck(fn func()) {
	prev := r.errHandling
	r.errHandling = true
	defer func() { r.errHandling = prev }()
	fn()
}

// ReportResult appends values to the rank's reported output; the harness
// compares reported outputs against a fault-free golden run to detect
// silent data corruption (the WRONG_ANS response class).
func (r *Rank) ReportResult(vals ...float64) {
	r.reported = append(r.reported, vals...)
}

// Abort terminates the run the way an application's own error handling
// does: the rank panics with AppError, which the job launcher propagates as
// an application-detected failure (APP_DETECTED).
func (r *Rank) Abort(msg string) {
	panic(AppError{Rank: r.id, Message: msg})
}

// Assert aborts with msg when cond is false; a convenience for application
// sanity checks.
func (r *Rank) Assert(cond bool, msg string) {
	if !cond {
		r.Abort(msg)
	}
}

// nextSeq allocates the next collective sequence number on comm; it keys
// the internal tag namespace so back-to-back collectives cannot steal each
// other's messages.
func (r *Rank) nextSeq(c Comm) int64 {
	if r.collSeq == nil {
		r.collSeq = make(map[Comm]int64)
	}
	s := r.collSeq[c]
	r.collSeq[c] = s + 1
	return s
}

// Send delivers a user point-to-point message to dst (rank within comm).
func (r *Rank) Send(comm Comm, dst, tag int, data []byte) {
	if r.replayActive() {
		r.replaySend()
		return
	}
	r.sendUser(comm, dst, tag, data, nil)
}

// sendUser is the live half of a user-level send. own, when non-nil, is the
// arena slab backing data, whose ownership passes to the message.
func (r *Rank) sendUser(comm Comm, dst, tag int, data []byte, own *slab) {
	args := r.beginP2P(P2PSend, P2PArgs{Peer: dst, Tag: tag, Data: data, Comm: comm})
	if args.Tag < 0 || args.Tag >= maxUserTag {
		abortf(r.id, "MPI_Send", ErrTag, "tag %d outside [0,%d)", args.Tag, maxUserTag)
	}
	ci := r.commDeref(args.Comm)
	if args.Peer < 0 || args.Peer >= len(ci.members) {
		abortf(r.id, "MPI_Send", ErrRank, "destination %d outside communicator of size %d", args.Peer, len(ci.members))
	}
	if own != nil && (len(args.Data) != len(data) || &args.Data[0] != &data[0]) {
		// The hook substituted a payload of its own (possibly a sub-slice of
		// the slab): post copies it, and only then may the slab be reused.
		r.post(ci, args.Comm, args.Peer, int64(args.Tag), args.Data, nil)
		putSlab(own)
		return
	}
	r.post(ci, args.Comm, args.Peer, int64(args.Tag), args.Data, own)
}

// SendFloat64s sends vals as one message of little-endian float64s. A send
// inside the replayed prefix of a forked run costs one tape step and no
// marshalling: its payload is already on the receiver's tape. Live, vals is
// encoded once into an arena slab which — after the hook has seen it as
// P2PArgs.Data, so a p2p bit flip lands on the transmitted bytes and never
// on vals — becomes the message payload itself.
func (r *Rank) SendFloat64s(comm Comm, dst, tag int, vals []float64) {
	if r.replayActive() {
		r.replaySend()
		return
	}
	data, own := r.scratch(len(vals) * 8)
	putFloat64s(data, vals)
	r.sendUser(comm, dst, tag, data, own)
}

// Recv blocks until a user message from src with the given tag arrives.
// src may be AnySource and tag may be AnyTag. The returned bytes belong to
// the caller.
func (r *Rank) Recv(comm Comm, src, tag int) []byte {
	if r.replayActive() {
		return r.replayRecv()
	}
	m := r.recvUser(comm, src, tag)
	return m.payload()
}

// recvUser is the live half of a user-level receive: hook, validation,
// match, and the tape record when a trace is being taken.
func (r *Rank) recvUser(comm Comm, src, tag int) message {
	args := r.beginP2P(P2PRecv, P2PArgs{Peer: src, Tag: tag, Comm: comm})
	ci, want := r.recvArgs("MPI_Recv", args.Comm, args.Peer, args.Tag, true)
	if r.world.rec != nil && (want.src == AnySource || want.tag == anyTagSentinel) {
		// A wildcard match depends on arrival interleaving, which the tape's
		// per-rank cut cannot reconstruct; such apps use full replay.
		r.world.rec.poison("wildcard receive (AnySource/AnyTag)")
	}
	m := r.recvMatch(want)
	if r.world.rec != nil {
		r.world.rec.recordRecv(r.id, want.comm, m.src, ci.members[m.src], m.tag, m.tracePos, m.data)
	}
	return m
}

// recvArgs is the argument check of every user receive (Recv, Irecv): a tag outside the user range or a source outside the
// communicator is an MPI error, and AnyTag/AnySource pass only where wild
// allows them. It returns the communicator and what the receive waits for.
func (r *Rank) recvArgs(op string, comm Comm, src, tag int, wild bool) (*commInfo, matcher) {
	if !(wild && tag == AnyTag) && (tag < 0 || tag >= maxUserTag) {
		abortf(r.id, op, ErrTag, "tag %d outside [0,%d)", tag, maxUserTag)
	}
	ci := r.commDeref(comm)
	if !(wild && src == AnySource) && (src < 0 || src >= len(ci.members)) {
		abortf(r.id, op, ErrRank, "source %d outside communicator of size %d", src, len(ci.members))
	}
	t := int64(tag)
	if tag == AnyTag {
		t = anyTagSentinel
	}
	return ci, matcher{comm, src, t}
}

// RecvFloat64sInto receives a message of float64s and decodes it into dst's
// storage, returning dst[:n] for an n-element message — so a halo exchange
// that keeps its buffers allocates nothing per sweep. The result's length is
// always the message's: one shorter than dst leaves dst's tail and capacity
// alone, and one longer than cap(dst) is returned in a fresh slice with dst
// untouched, exactly what RecvFloat64s returns. In the replayed prefix of a
// forked run the values come straight off the immutable tape; live, the
// payload is decoded in place and its slab goes back to the arena.
func (r *Rank) RecvFloat64sInto(comm Comm, src, tag int, dst []float64) []float64 {
	if r.replayActive() {
		ev := r.replay.replayNext(evRecv, "Recv")
		return float64sInto(dst, r.replay.tape.span(ev.off, ev.n))
	}
	m := r.recvUser(comm, src, tag)
	out := float64sInto(dst, m.data)
	m.recycle()
	return out
}

// RecvFloat64s receives and unmarshals float64 values into a fresh slice.
func (r *Rank) RecvFloat64s(comm Comm, src, tag int) []float64 {
	return r.RecvFloat64sInto(comm, src, tag, nil)
}

// float64sInto decodes a payload's whole float64s (a ragged tail is
// ignored) into dst[:n]; a nil dst or one too small for the payload is
// replaced by a fresh slice of the payload's length.
func float64sInto(dst []float64, raw []byte) []float64 {
	n := len(raw) / 8
	if dst == nil || n > cap(dst) {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	getFloat64s(dst, raw)
	return dst
}

// float64sFrom decodes a payload into a fresh slice.
func float64sFrom(raw []byte) []float64 { return float64sInto(nil, raw) }

// int64sFrom decodes a payload exactly as Buffer.Int64s does.
func int64sFrom(raw []byte) []int64 {
	out := make([]int64, len(raw)/8)
	for i := range out {
		out[i] = loadInt64(raw[i*8:])
	}
	return out
}

// Sendrecv performs the combined exchange of MPI_Sendrecv: data goes to
// dst under sendTag while a message from src under recvTag is received,
// without the manual ordering burden (the send is buffered eagerly, so the
// pair cannot deadlock against a symmetric partner).
func (r *Rank) Sendrecv(comm Comm, dst, sendTag int, data []byte, src, recvTag int) []byte {
	r.Send(comm, dst, sendTag, data)
	return r.Recv(comm, src, recvTag)
}

const anyTagSentinel int64 = -2

// post enqueues data at the destination rank's inbox. dst is a rank within
// ci. A sender finding the inbox full parks until the receiver examines what
// is there, so a jammed schedule is detected as deadlock.
//
// own, when non-nil, is the slab already backing data (a typed send's
// single encoding), which becomes the message payload without a copy.
// Otherwise data is the caller's memory and is copied: into an arena slab
// for an internal collective payload (tag >= maxUserTag), whose consumer
// recycles it, and into a plain exact-size allocation for a raw user Send —
// its receiver is a raw Recv, which would take a slab out of the arena for
// good and pay for the size class's rounding. The consumer settles a slab
// (see message).
func (r *Rank) post(ci *commInfo, comm Comm, dst int, tag int64, data []byte, own *slab) {
	w := r.world
	wdst := ci.members[dst]
	if w.faulty {
		// Fault domain active: consult it before any copy is made. A
		// message to a dead node, or one whose route hits a failed link or
		// an armed drop, is silently discarded — exactly what a lossy
		// fabric does. On the default reliable network this whole block is
		// one predicted-false branch, preserving the zero-alloc hot path.
		w.mu.Lock()
		dead := w.dead[wdst]
		w.mu.Unlock()
		if dead || (w.net != nil && !w.net.deliver(r.id, wdst)) {
			putSlab(own)
			return
		}
	}
	cp, pooled := data, own
	if own == nil {
		if n := len(data); n > 0 && tag >= maxUserTag && n <= maxSlabBytes && w.pooling {
			pooled = getSlab(n)
			cp = pooled.b[:n]
		} else {
			cp = make([]byte, n)
		}
		copy(cp, data)
	}
	me := ci.rankOf[r.id]
	tracePos := int32(-1)
	if w.rec != nil && tag >= 0 && tag < maxUserTag {
		tracePos = w.rec.recordSend(r.id, comm, dst, tag)
	}
	msg := message{comm: comm, src: me, tag: tag, data: cp, pooled: pooled, tracePos: tracePos, ck: r.ckEpoch}
	target := w.ranks[wdst]
	w.mu.Lock()
	if w.held && w.why == NotKilled {
		w.release()
	}
	for len(target.inbox) >= w.mailbox {
		if w.faulty && w.dead[wdst] {
			w.mu.Unlock()
			msg.recycle()
			return
		}
		r.park()
	}
	target.inbox = append(target.inbox, msg)
	woke := w.unpark(target)
	w.mu.Unlock()
	if woke {
		// Signalled after the unlock, so the receiver does not wake
		// straight into a lock its sender still holds.
		target.signal()
	}
}

// matcher is what a receive waits for: a message on comm from src (a rank
// within comm, or AnySource) with tag (or anyTagSentinel: any user tag).
type matcher struct {
	comm Comm
	src  int
	tag  int64
}

func (want *matcher) ok(m *message) bool {
	if m.comm != want.comm || (want.src != AnySource && m.src != want.src) {
		return false
	}
	if want.tag == anyTagSentinel {
		return m.tag >= 0 && m.tag < maxUserTag
	}
	return m.tag == want.tag
}

// recvMatch returns the first message want accepts (take), parking until one
// arrives. A user message sent before a checkpoint this rank has passed
// refuses that checkpoint's cut (checkpoint.go, part 6).
func (r *Rank) recvMatch(want matcher) message {
	w := r.world
	w.mu.Lock()
	for {
		if m, ok := r.take(&want); ok {
			if r.ckNext >= 0 && m.ck < r.ckEpoch && m.tag < maxUserTag {
				w.refuse(m.ck, r.ckEpoch-1)
			}
			w.mu.Unlock()
			return m
		}
		r.park()
	}
}

// take removes and returns the oldest message want accepts: pending first,
// then the inbox in arrival order, moving every inbox message it passes over
// to pending. Draining a full inbox wakes the parked ranks, so a sender
// waiting for room tries again. Called under World.mu.
func (r *Rank) take(want *matcher) (m message, ok bool) {
	for i := range r.pending {
		if want.ok(&r.pending[i]) {
			m = r.pending[i]
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return m, true
		}
	}
	n, i := len(r.inbox), 0
	for i < n && !want.ok(&r.inbox[i]) {
		i++
	}
	r.pending = append(r.pending, r.inbox[:i]...)
	if i < n {
		m, ok = r.inbox[i], true
		i++
	}
	// Shift what is left to the front in place: re-slicing past the head
	// would make the next append reallocate.
	left := copy(r.inbox, r.inbox[i:])
	clear(r.inbox[left:n])
	r.inbox = r.inbox[:left]
	if n >= r.world.mailbox {
		r.world.wakeAll()
	}
	return m, ok
}
