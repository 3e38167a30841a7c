package mpi

// Buffer arena. A fault-injection campaign executes the same application
// thousands of times, and every run used to rebuild the same transient
// state from scratch: per-rank mailboxes, random sources and
// bookkeeping maps, a fresh backing array for every simulated-memory
// Buffer, a copy of every message payload, and an accumulator per
// reduction. At paper scale (32 ranks x 100 trials/point) that allocation
// churn dominates the campaign's wall clock. This file recycles all of it
// across runs:
//
//   - slabs: size-classed []byte regions backing message payloads,
//     collective scratch accumulators and pooled Buffers;
//   - run shells: the whole per-rank skeleton of a World (inbox and
//     pending slices, wake channel, rand source, bookkeeping maps, reusable
//     hook records and memoised call stacks), keyed by rank count;
//   - static memory: the application's own arrays sized by its problem
//     class, which Static hands out from the rank's shell.
//
// Lifetime discipline is what makes this safe:
//
//   - A shell is taken from its pool before the rank goroutines start and
//     returned only after every rank goroutine has been joined, so two
//     in-flight runs can never share a shell.
//   - A slab carried by a message has exactly one owner at a time — the
//     sender until the message is enqueued, then whoever dequeues it — and
//     the consumer settles it. An internal collective, or a typed receive
//     (RecvFloat64sInto), reads the bytes and recycles the slab: nothing
//     else ever saw them. A raw Recv (and Wait, Test) gives the
//     bytes to the application, which may keep and mutate them for as long
//     as it likes, so it never recycles: the slab leaves the arena with
//     them, and a slab never returned to the pool is an ordinary GC object.
//     A typed send (SendFloat64s) encodes straight into the slab that
//     becomes the payload; the hook sees those bytes as P2PArgs.Data. A raw
//     Send's payload is a plain exact-size copy, not a slab: its receiver
//     is a raw Recv, which could only take the slab out of the arena.
//   - A prestocked go-live message of a forked run borrows its span of the
//     golden tape instead of owning a slab. The tape is shared by every
//     trial, so a typed receive decodes it in place and a raw receive
//     copies it (message.payload) before the application can touch it.
//   - Pooled Buffers are tracked per rank and swept back into the arena at
//     the end of the run; convenience wrappers that know their buffers do
//     not escape release them early via (*Buffer).Release.
//   - A static array belongs to the rank's shell, is handed out to at most
//     one Static call of a run and is free again once the run's ranks have
//     been joined (reclaim), so it lives exactly as long as the run that
//     asked for it. Two kinds of run fall back to make: a recording run,
//     whose checkpoints keep application memory past the run (mg's and lu's
//     clones share the right-hand side), and a run with pooling off. Only
//     a size the application fixed before it communicated may be pooled: a
//     size taken from a received value could be corrupted, and the shell
//     would keep the huge array it asked for.
//
// Everything here is disabled by RunOptions.DisablePooling, which restores
// the original allocate-per-run behaviour. It is the runtime's reference
// seam, not a campaign option: internal/core's reference engine reaches it
// through an unexported field, and the execution-mode tables prove the two
// paths outcome-identical.

import (
	"math/bits"
	"sync"
	"unsafe"
)

// slab is a pooled byte region. Its backing array always has the exact
// power-of-two length of its size class, so a slab can be re-sliced to any
// payload length on reuse.
type slab struct {
	b []byte
}

const (
	minSlabClass = 6  // 64 B
	maxSlabClass = 24 // 16 MiB
	// maxSlabBytes bounds what the arena will pool; a wildly corrupted
	// count that asks for more falls through to a plain GC allocation.
	maxSlabBytes = 1 << maxSlabClass
)

var slabPools [maxSlabClass + 1]sync.Pool

// slabClass returns the smallest size class holding n bytes (n in
// [1, maxSlabBytes]).
func slabClass(n int) int {
	c := bits.Len(uint(n - 1))
	if c < minSlabClass {
		c = minSlabClass
	}
	return c
}

// getSlab returns a slab of at least n bytes (1 <= n <= maxSlabBytes). The
// contents are arbitrary; callers either fully overwrite or explicitly
// clear the prefix they use.
func getSlab(n int) *slab {
	c := slabClass(n)
	if s, ok := slabPools[c].Get().(*slab); ok {
		return s
	}
	return &slab{b: make([]byte, 1<<c)}
}

// putSlab returns a slab to its class pool. Nil-safe, so cleanup paths can
// call it unconditionally.
func putSlab(s *slab) {
	if s == nil {
		return
	}
	n := len(s.b)
	if n&(n-1) != 0 || n < 1<<minSlabClass || n > maxSlabBytes {
		return // not arena-shaped; let the GC have it
	}
	slabPools[slabClass(n)].Put(s)
}

// stackEntry is one memoised call stack: the trimmed application-side
// stack and its hash, keyed by the hash of the raw PC array. Raw return
// PCs are stable for a given static call path within one process, so after
// the first occurrence a collective entry costs no CallersFrames walk and
// no stack allocation.
type stackEntry struct {
	stack []uintptr
	hash  uint64
}

// collFrame holds a rank's reusable collective records. With pooling on,
// every collective on a rank reuses the same CollectiveCall/Args pair (a
// rank executes at most one collective at a time); the records are only
// valid for the duration of the hook callbacks, as documented on Hook. coll,
// the runtime's own per-call record (see enter), never reaches the hook and
// is reused whether pooling is on or not.
type collFrame struct {
	call CollectiveCall
	args Args
	coll collCall
}

// p2pFrame is collFrame's point-to-point counterpart.
type p2pFrame struct {
	call P2PCall
	args P2PArgs
}

// runShell is the recyclable skeleton of one World: the Rank structs with
// their mailboxes, random sources, maps, frames and caches. The World
// itself (and the results it reports) is rebuilt per run; only the
// expensive rank state is recycled.
type runShell struct {
	n     int
	ranks []*Rank
	// world0 is the CommWorld descriptor. Its members/rankOf tables depend
	// only on n and are never mutated after construction, so they are
	// shared across runs. Communicators created by CommSplit/CommDup are
	// per-run and stay GC-managed.
	world0 *commInfo
	// The rendezvous tables of earlier runs (rendezvous.go): meetings is
	// kept empty, for its backing array, and spare holds the records.
	// world0's progress is cleared when a run ends.
	meetings, spare []*meeting
}

var (
	shellPoolsMu sync.Mutex
	shellPools   = map[int]*sync.Pool{}
)

func shellPoolFor(n int) *sync.Pool {
	shellPoolsMu.Lock()
	defer shellPoolsMu.Unlock()
	p := shellPools[n]
	if p == nil {
		p = &sync.Pool{}
		shellPools[n] = p
	}
	return p
}

// getShell returns a recycled shell of n ranks, or nil.
func getShell(n int) *runShell {
	if v := shellPoolFor(n).Get(); v != nil {
		return v.(*runShell)
	}
	return nil
}

func putShell(sh *runShell) {
	shellPoolFor(sh.n).Put(sh)
}

// newShell builds a fresh shell. Rank random sources are created lazily in
// bind, which knows the run seed.
func newShell(n int) *runShell {
	members := make([]int, n)
	rankOf := make(map[int]int, n)
	for i := range members {
		members[i] = i
		rankOf[i] = i
	}
	sh := &runShell{
		n:      n,
		ranks:  make([]*Rank, n),
		world0: &commInfo{handle: CommWorld, members: members, rankOf: rankOf, arrived: make([]int64, n)},
	}
	for i := 0; i < n; i++ {
		sh.ranks[i] = &Rank{
			id:      i,
			wake:    make(chan struct{}, 1),
			invents: make(map[uintptr]int),
		}
	}
	return sh
}

// rankSeed derives rank i's deterministic random seed from the run seed.
func rankSeed(seed int64, i int) int64 {
	return seed*7919 + int64(i)*104729 + 1
}

// bind attaches a rank to a new run, resetting all per-run state. On a
// recycled shell the inbox, pending list, wake channel and owned-buffer list
// are already empty (reclaim drained them when the previous run ended). The
// default random source is only marked stale here; the first Rand call of
// the run reseeds it through the fibSource cache (rng.go), reproducing
// rand.New(rand.NewSource(s)) exactly, so a recycled rank's random stream
// is identical to a fresh one and ranks that never draw pay nothing.
func (rk *Rank) bind(w *World, seed, budget int64) {
	rk.world = w
	rk.rndSeed = seed
	rk.rndLive = false
	clear(rk.invents)
	clear(rk.collSeq)
	rk.phase = PhaseInit
	rk.errHandling = false
	rk.work = 0
	rk.budget = budget
	rk.reported = nil // escapes into RankResult.Values; never recycled
	rk.replay = nil   // armed by bindFork after every rank is bound
	rk.cutSeq = -1    // likewise
	rk.ckNext = -1    // likewise
	rk.ckEpoch = 0
	rk.meeting = meetPending
}

// reclaim returns a finished run's pooled memory to the arena: leftover
// messages in inboxes and pending lists (a killed run abandons traffic in
// flight) and every pooled Buffer handed out during the run. A rank killed
// while parked may still be marked parked, with a wake it never read. It
// must only be called after all rank goroutines have been joined.
func (sh *runShell) reclaim() {
	for _, rk := range sh.ranks {
		rk.inbox = recycleAll(rk.inbox)
		rk.pending = recycleAll(rk.pending)
		rk.parked = false
		select {
		case <-rk.wake:
		default:
		}
		for i, b := range rk.owned {
			putSlab(b.slab)
			b.slab = nil
			b.mem = nil
			b.temp = false // a recycled header must not inherit the mark
			rk.bufFree = append(rk.bufFree, b)
			rk.owned[i] = nil
		}
		rk.owned = rk.owned[:0]
		for i := range rk.statics {
			rk.statics[i].used = false
		}
		rk.world = nil
	}
}

// recycleAll recycles every message of q and returns q emptied, keeping its
// backing array for the next run.
func recycleAll(q []message) []message {
	for i := range q {
		q[i].recycle()
	}
	clear(q)
	return q[:0]
}

// static is one backing array Static handed out from a rank's shell: mem
// holds a []T of n elements, in use by the run that asked for it until
// reclaim frees it.
type static struct {
	mem  any
	n    int
	used bool
}

// Static is make([]T, n, capacity) for an application array sized by its
// problem class (its configuration and rank count, never a communicated
// value): the same length and capacity, zeroed over the whole capacity, so
// indexing, reslicing and append behave exactly as on make's slice. Its
// backing array belongs to the rank's run shell and serves the rank's next
// run once this one ends, so a trial does not allocate it again. Among the
// shell's free arrays of that element type it takes the smallest that fits,
// so which arrays a run asks for, and in what order, does not matter (a
// resumed run skips the ones its checkpoint supplies). It is plain make
// when pooling is off, in a recording run, and above the arena's size
// bound.
func Static[T any](r *Rank, n, capacity int) []T {
	var zero T
	w := r.world
	if !w.pooling || w.rec != nil || n < 0 || n > capacity || capacity == 0 ||
		unsafe.Sizeof(zero) > 0 && uintptr(capacity) > maxSlabBytes/unsafe.Sizeof(zero) {
		return make([]T, n, capacity)
	}
	best, small := -1, -1
	for i, st := range r.statics {
		if st.used {
			continue
		}
		if _, ok := st.mem.([]T); !ok {
			continue
		}
		if st.n < capacity {
			small = i
		} else if best < 0 || st.n < r.statics[best].n {
			best = i
		}
	}
	var mem []T
	switch {
	case best >= 0:
		mem = r.statics[best].mem.([]T)[:capacity]
		clear(mem)
		r.statics[best].used = true
	default:
		// Nothing free fits: a free array of the type that is too small
		// gives up its place, so the shell keeps at most as many arrays of
		// a type as one run used at once.
		mem = make([]T, capacity)
		st := static{mem: mem, n: capacity, used: true}
		if small >= 0 {
			r.statics[small] = st
		} else {
			r.statics = append(r.statics, st)
		}
	}
	return mem[:n:capacity]
}

// allocBuffer hands out an n-byte buffer from the arena (zeroed when zero
// is set), falling back to a plain allocation when pooling is off or the
// request is outside arena bounds. Pooled buffers are tracked in the
// rank's owned list and swept back by reclaim.
func (r *Rank) allocBuffer(n int, zero bool) *Buffer {
	if n < 0 {
		n = 0
	}
	if !r.world.pooling || n == 0 || n > maxSlabBytes {
		return &Buffer{mem: make([]byte, n)}
	}
	s := getSlab(n)
	mem := s.b[:n]
	if zero {
		clear(mem)
	}
	var b *Buffer
	if k := len(r.bufFree); k > 0 {
		b = r.bufFree[k-1]
		r.bufFree[k-1] = nil
		r.bufFree = r.bufFree[:k-1]
	} else {
		b = new(Buffer)
	}
	b.mem = mem
	b.slab = s
	r.owned = append(r.owned, b)
	return b
}

// scratch returns an n-byte work area for a collective's accumulator. The
// contents are arbitrary — every use fully overwrites the area before
// reading it. The returned slab (nil when unpooled) goes back to the arena
// via putSlab once the accumulator is dead.
func (r *Rank) scratch(n int) ([]byte, *slab) {
	if !r.world.pooling || n == 0 || n > maxSlabBytes {
		return make([]byte, n), nil
	}
	s := getSlab(n)
	return s.b[:n], s
}

// newArgs returns the Args record for one collective invocation: the
// rank's reusable frame under pooling, a fresh allocation otherwise.
func (r *Rank) newArgs(a Args) *Args {
	if r.world.pooling {
		r.frame.args = a
		return &r.frame.args
	}
	p := new(Args)
	*p = a
	return p
}

// newCollCall returns the CollectiveCall record for one invocation, with
// the same pooling discipline as newArgs.
func (r *Rank) newCollCall() *CollectiveCall {
	if r.world.pooling {
		return &r.frame.call
	}
	return new(CollectiveCall)
}

// newP2PArgs and newP2PCall are the point-to-point counterparts.
func (r *Rank) newP2PArgs(a P2PArgs) *P2PArgs {
	if r.world.pooling {
		r.p2p.args = a
		return &r.p2p.args
	}
	p := new(P2PArgs)
	*p = a
	return p
}

func (r *Rank) newP2PCall() *P2PCall {
	if r.world.pooling {
		return &r.p2p.call
	}
	return new(P2PCall)
}

// lookupStack memoises trimToApp + hashStack for a raw PC array. The cache
// lives on the rank and survives run recycling: PCs are process-stable, so
// a campaign pays the CallersFrames walk once per distinct call path.
func (r *Rank) lookupStack(pcs []uintptr) stackEntry {
	key := hashPCs(pcs)
	if e, ok := r.stacks[key]; ok {
		return e
	}
	st := trimToApp(pcs)
	e := stackEntry{stack: st, hash: hashStack(st)}
	if r.stacks == nil {
		r.stacks = make(map[uint64]stackEntry)
	}
	r.stacks[key] = e
	return e
}
