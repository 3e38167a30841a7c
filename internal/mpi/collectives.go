package mpi

// This file implements the collective algorithms on top of point-to-point
// messaging: dissemination barrier, binomial-tree broadcast and reduce,
// recursive-doubling allreduce, linear scatter/gather, ring allgather,
// pairwise-exchange alltoall(/v), reduce_scatter and linear scan.
//
// Every collective enters through enter, the one path a corrupted argument
// takes whichever call it hits: hook, validation, sequencing. Each body
// below is then only its algorithm. Every algorithm consumes the (possibly
// injector-mutated) Args fields of its own rank only, so a corrupted
// parameter on one rank derails the message schedule exactly as it would
// in a real MPI library: truncation errors, stray reads of heap garbage,
// buffer overruns, garbage reductions, or deadlock. Buffer traffic goes
// through the heap-slack ReadAt/WriteAt model (see buffer.go), which
// decides whether a corrupted size is a silent overread, an oversized
// message or a crash.

import "runtime"

// collCall is one live collective invocation past its prologue: the
// arguments as the hook left them, the type (whose MPI name the call's
// errors carry), the communicator with this rank's place in it, and the
// sequence number that keys the call's internal tags. call is the record
// the recorder and the hook see, nil when neither looks at this call
// (observed). meets marks a call that may complete in the rendezvous.
type collCall struct {
	*Args
	r        *Rank
	t        CollType
	ci       *commInfo
	me, size int
	seq      int64
	call     *CollectiveCall
	meets    bool
}

// enter is every collective's prologue, in the order the fault model needs:
// a call inside a forked run's replayed prefix is served from the tape, and
// enter returns nil; otherwise the arguments go into the rank's Args frame,
// the call is charged to the work budget, an observed call's application
// context is captured and the hook sees (and may corrupt) its arguments,
// the communicator handle is dereferenced, the type's entry checks run on
// what the hook left, and the call takes its sequence number and books its
// arrival at that instance (rendezvous.go; a Barrier or Allreduce that may
// meet in memory books it in meet). A rank runs one collective at a time,
// so the record lives in its frame.
func (r *Rank) enter(t CollType, a Args) *collCall {
	if r.replayActive() {
		r.replayCollective(t, a.Send, a.Recv, a.Comm)
		return nil
	}
	args := r.newArgs(a)
	r.Tick(collectiveWorkCharge)
	var call *CollectiveCall
	if r.observed() {
		st, site, inv := r.callSite(r.pcbuf[:runtime.Callers(2, r.pcbuf[:])])
		call = r.newCollCall()
		*call = CollectiveCall{
			Rank:        r.id,
			Type:        t,
			Site:        site,
			Invocation:  inv,
			Stack:       st.stack,
			StackHash:   st.hash,
			Phase:       r.phase,
			ErrHandling: r.errHandling,
			Args:        args,
		}
	}
	if r.cutSeq >= 0 {
		r.snapshotFaultedCall(t, args)
	}
	if call != nil && r.world.hook != nil {
		r.world.hook.BeforeCollective(call)
	}
	ci := r.commDeref(args.Comm)
	validate(r.id, t, args, ci)
	me, size := ci.rankOf[r.id], len(ci.members)
	c := &r.frame.coll
	meets := r.world.rendezvous(t, size)
	*c = collCall{Args: args, r: r, t: t, ci: ci, me: me, size: size, call: call,
		seq: r.joinSeq(ci, args.Comm, me, meets), meets: meets}
	return c
}

// observed reports whether anything looks at the collective this rank is
// entering: the recorder of a recording run, or the hook. In a forked run
// the hook sees only the faulted rank's calls up to the faulted instance,
// the only calls its fault can be addressed to (Fork's contract), so every
// other live call skips the stack capture.
func (r *Rank) observed() bool {
	w := r.world
	if w.rec != nil {
		return true
	}
	if w.hook == nil {
		return false
	}
	return w.fork == nil || r.id == w.fork.rank && r.collSeq[CommWorld] <= w.fork.seq
}

// validate performs the argument validation a production MPI library
// applies on entry to a collective: negative counts, null handles and
// out-of-range roots are reported as MPI errors. What is checked follows
// the signature: Barrier has nothing to check, the vector calls Alltoallv
// and ReduceScatter carry no scalar count, only reductions take an op and
// only rooted calls a root. Non-null corrupted datatype/op handles are
// deliberately NOT validated — they are dereferenced later like the
// pointers they are in real implementations, and crash.
func validate(rank int, t CollType, a *Args, ci *commInfo) {
	if t == CollBarrier {
		return
	}
	op := collNames[t]
	if t != CollAlltoallv && t != CollReduceScatter && a.Count < 0 {
		abortf(rank, op, ErrCount, "negative count %d", a.Count)
	}
	checkDtype(rank, op, a.Dtype)
	switch t {
	case CollReduce, CollAllreduce, CollReduceScatter, CollScan:
		checkOp(rank, op, a.Op)
	}
	if t.Rooted() && (a.Root < 0 || int(a.Root) >= len(ci.members)) {
		abortf(rank, op, ErrRoot, "root %d outside communicator of size %d", a.Root, len(ci.members))
	}
}

// sendTo posts data to dst (a rank of the call's communicator) under the
// call's internal tag for round.
func (c *collCall) sendTo(dst, round int, data []byte) {
	c.r.post(c.ci, c.Comm, dst, internalTag(c.seq, round), data, nil)
}

// recvFrom receives the call's round message from src and applies MPI's
// truncation rule: an incoming message longer than the posted receive of
// want bytes is an error (MPI_ERR_TRUNCATE); a shorter one is accepted
// as-is. The caller owns the returned message and recycles its pooled
// payload once the data has been consumed.
func (c *collCall) recvFrom(src, round, want int) message {
	m := c.r.recvMatch(matcher{c.Comm, src, internalTag(c.seq, round)})
	if len(m.data) > want {
		abortf(c.r.id, c.t.String(), ErrTruncate, "message of %d bytes truncated to receive of %d bytes", len(m.data), want)
	}
	return m
}

// padTo zero-extends data to n bytes, modelling the heap garbage a real
// reduction reads when an incoming message is shorter than count elements.
func padTo(data []byte, n int) []byte {
	if len(data) >= n {
		return data
	}
	out := make([]byte, n)
	copy(out, data)
	return out
}

// Barrier blocks until every rank of comm has entered it (dissemination
// algorithm, or the rendezvous).
func (r *Rank) Barrier(comm Comm) {
	c := r.enter(CollBarrier, Args{Comm: comm})
	if c == nil {
		return
	}
	if c.meet(nil) {
		r.endCollective(c)
		return
	}
	round := 0
	for mask := 1; mask < c.size; mask <<= 1 {
		c.sendTo((c.me+mask)%c.size, round, nil)
		m := r.recvMatch(matcher{c.Comm, (c.me - mask + c.size) % c.size, internalTag(c.seq, round)})
		m.recycle()
		round++
	}
	r.endCollective(c)
}

// Bcast broadcasts count elements of dt from root's buf into every other
// rank's buf (binomial tree).
func (r *Rank) Bcast(buf *Buffer, count int, dt Datatype, root int, comm Comm) {
	c := r.enter(CollBcast, Args{Send: buf, Count: int32(count), Dtype: dt, Root: int32(root), Comm: comm})
	if c == nil {
		return
	}
	nbytes := int(c.Count) * c.Dtype.Size()
	vrank := (c.me - int(c.Root) + c.size) % c.size

	mask := 1
	for mask < c.size {
		if vrank&mask != 0 {
			m := c.recvFrom(((vrank-mask)%c.size+int(c.Root))%c.size, 0, nbytes)
			c.Send.WriteAt("MPI_Bcast recv", 0, m.data)
			m.recycle()
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < c.size {
			payload := c.Send.ReadAt("MPI_Bcast send", 0, nbytes)
			c.sendTo((vrank+mask+int(c.Root))%c.size, 0, payload)
		}
	}
	r.endCollective(c)
}

// Reduce combines count elements of dt from every rank's send buffer with
// op, leaving the result in root's recv buffer (binomial tree).
func (r *Rank) Reduce(send, recv *Buffer, count int, dt Datatype, op Op, root int, comm Comm) {
	c := r.enter(CollReduce, Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Op: op, Root: int32(root), Comm: comm})
	if c == nil {
		return
	}
	nbytes := int(c.Count) * c.Dtype.Size()
	src := c.Send.ReadAt("MPI_Reduce send", 0, nbytes)
	acc, accSlab := r.scratch(nbytes)
	copy(acc, src)

	vrank := (c.me - int(c.Root) + c.size) % c.size
	for mask := 1; mask < c.size; mask <<= 1 {
		if vrank&mask == 0 {
			if srcV := vrank | mask; srcV < c.size {
				m := c.recvFrom((srcV+int(c.Root))%c.size, 0, nbytes)
				combine(c.Op, c.Dtype, acc, padTo(m.data, nbytes), int(c.Count))
				m.recycle()
			}
		} else {
			c.sendTo((vrank-mask+int(c.Root))%c.size, 0, acc)
			break
		}
	}
	if vrank == 0 {
		c.Recv.WriteAt("MPI_Reduce recv", 0, acc)
	}
	putSlab(accSlab)
	r.endCollective(c)
}

// Allreduce combines count elements with op and leaves the result in every
// rank's recv buffer. Power-of-two communicators use recursive doubling,
// in the rendezvous when it completes the instance; others fall back to
// reduce-to-zero plus broadcast.
func (r *Rank) Allreduce(send, recv *Buffer, count int, dt Datatype, op Op, comm Comm) {
	c := r.enter(CollAllreduce, Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Op: op, Comm: comm})
	if c == nil {
		return
	}
	nbytes := int(c.Count) * c.Dtype.Size()
	src := c.Send.ReadAt("MPI_Allreduce send", 0, nbytes)
	acc, accSlab := r.scratch(nbytes)
	copy(acc, src)

	me, size := c.me, c.size
	switch {
	case c.meet(acc):
		// the rendezvous completed it
	case size&(size-1) == 0:
		// recursive doubling
		round := 0
		for mask := 1; mask < size; mask <<= 1 {
			partner := me ^ mask
			c.sendTo(partner, round, acc)
			m := c.recvFrom(partner, round, nbytes)
			combine(c.Op, c.Dtype, acc, padTo(m.data, nbytes), int(c.Count))
			m.recycle()
			round++
		}
	default:
		// reduce to rank 0, then binomial broadcast
		for mask := 1; mask < size; mask <<= 1 {
			if me&mask == 0 {
				if from := me | mask; from < size {
					m := c.recvFrom(from, 200, nbytes)
					combine(c.Op, c.Dtype, acc, padTo(m.data, nbytes), int(c.Count))
					m.recycle()
				}
			} else {
				c.sendTo(me-mask, 200, acc)
				break
			}
		}
		mask := 1
		for mask < size {
			if me&mask != 0 {
				m := c.recvFrom(me-mask, 201, nbytes)
				copy(acc, padTo(m.data, nbytes))
				m.recycle()
				break
			}
			mask <<= 1
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if me+mask < size {
				c.sendTo(me+mask, 201, acc)
			}
		}
	}
	c.Recv.WriteAt("MPI_Allreduce recv", 0, acc)
	putSlab(accSlab)
	r.endCollective(c)
}

// Scatter distributes consecutive count-element blocks of root's send
// buffer to the ranks' recv buffers (linear from root).
func (r *Rank) Scatter(send, recv *Buffer, count int, dt Datatype, root int, comm Comm) {
	c := r.enter(CollScatter, Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Root: int32(root), Comm: comm})
	if c == nil {
		return
	}
	blk := int(c.Count) * c.Dtype.Size()
	if c.me == int(c.Root) {
		for p := 0; p < c.size; p++ {
			src := c.Send.ReadAt("MPI_Scatter send", p*blk, blk)
			if p == c.me {
				c.Recv.WriteAt("MPI_Scatter recv", 0, src)
			} else {
				c.sendTo(p, 0, src)
			}
		}
	} else {
		m := c.recvFrom(int(c.Root), 0, blk)
		c.Recv.WriteAt("MPI_Scatter recv", 0, m.data)
		m.recycle()
	}
	r.endCollective(c)
}

// Gather collects count-element blocks from every rank's send buffer into
// consecutive blocks of root's recv buffer (linear to root).
func (r *Rank) Gather(send, recv *Buffer, count int, dt Datatype, root int, comm Comm) {
	c := r.enter(CollGather, Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Root: int32(root), Comm: comm})
	if c == nil {
		return
	}
	blk := int(c.Count) * c.Dtype.Size()
	if c.me == int(c.Root) {
		for p := 0; p < c.size; p++ {
			if p == c.me {
				c.Recv.WriteAt("MPI_Gather recv", p*blk, c.Send.ReadAt("MPI_Gather send", 0, blk))
			} else {
				m := c.recvFrom(p, 0, blk)
				c.Recv.WriteAt("MPI_Gather recv", p*blk, m.data)
				m.recycle()
			}
		}
	} else {
		c.sendTo(int(c.Root), 0, c.Send.ReadAt("MPI_Gather send", 0, blk))
	}
	r.endCollective(c)
}

// Allgather collects every rank's count-element send block into every
// rank's recv buffer (ring algorithm).
func (r *Rank) Allgather(send, recv *Buffer, count int, dt Datatype, comm Comm) {
	c := r.enter(CollAllgather, Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Comm: comm})
	if c == nil {
		return
	}
	blk := int(c.Count) * c.Dtype.Size()
	c.Recv.WriteAt("MPI_Allgather recv own", c.me*blk, c.Send.ReadAt("MPI_Allgather send", 0, blk))

	right := (c.me + 1) % c.size
	left := (c.me - 1 + c.size) % c.size
	cur := c.me
	for step := 0; step < c.size-1; step++ {
		c.sendTo(right, step, c.Recv.ReadAt("MPI_Allgather forward", cur*blk, blk))
		cur = (cur - 1 + c.size) % c.size
		m := c.recvFrom(left, step, blk)
		c.Recv.WriteAt("MPI_Allgather recv", cur*blk, m.data)
		m.recycle()
	}
	r.endCollective(c)
}

// Alltoall exchanges count-element blocks between every pair of ranks
// (pairwise exchange).
func (r *Rank) Alltoall(send, recv *Buffer, count int, dt Datatype, comm Comm) {
	c := r.enter(CollAlltoall, Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Comm: comm})
	if c == nil {
		return
	}
	blk := int(c.Count) * c.Dtype.Size()
	for step := 0; step < c.size; step++ {
		dst := (c.me + step) % c.size
		src := (c.me - step + c.size) % c.size
		if dst == c.me {
			c.Recv.WriteAt("MPI_Alltoall recv self", c.me*blk, c.Send.ReadAt("MPI_Alltoall send self", c.me*blk, blk))
			continue
		}
		c.sendTo(dst, step, c.Send.ReadAt("MPI_Alltoall send", dst*blk, blk))
		m := c.recvFrom(src, step, blk)
		c.Recv.WriteAt("MPI_Alltoall recv", src*blk, m.data)
		m.recycle()
	}
	r.endCollective(c)
}

// Alltoallv exchanges variable-sized blocks between every pair of ranks.
// Counts and displacements are in elements of dt.
func (r *Rank) Alltoallv(send *Buffer, sendCounts, sendDispls []int32, recv *Buffer, recvCounts, recvDispls []int32, dt Datatype, comm Comm) {
	c := r.enter(CollAlltoallv, Args{
		Send: send, Recv: recv, Dtype: dt, Comm: comm,
		SendCounts: sendCounts, SendDispls: sendDispls,
		RecvCounts: recvCounts, RecvDispls: recvDispls,
	})
	if c == nil {
		return
	}
	esz := c.Dtype.Size()

	// Count vectors are indexed per peer with no bounds validation (a real
	// MPI library trusts the caller's arrays); corrupted vectors therefore
	// produce MPI_ERR_COUNT, truncation, overruns or deadlock.
	cnt := func(v []int32, p int) int {
		n := int(v[p])
		if n < 0 {
			abortf(r.id, c.t.String(), ErrCount, "negative count %d for peer %d", n, p)
		}
		return n
	}
	for step := 0; step < c.size; step++ {
		dst := (c.me + step) % c.size
		src := (c.me - step + c.size) % c.size
		if dst == c.me {
			n := cnt(c.SendCounts, c.me) * esz
			data := c.Send.ReadAt("MPI_Alltoallv send self", int(c.SendDispls[c.me])*esz, n)
			want := cnt(c.RecvCounts, c.me) * esz
			if n > want {
				abortf(r.id, c.t.String(), ErrTruncate, "self message of %d bytes truncated to %d", n, want)
			}
			c.Recv.WriteAt("MPI_Alltoallv recv self", int(c.RecvDispls[c.me])*esz, data)
			continue
		}
		n := cnt(c.SendCounts, dst) * esz
		c.sendTo(dst, step, c.Send.ReadAt("MPI_Alltoallv send", int(c.SendDispls[dst])*esz, n))
		m := c.recvFrom(src, step, cnt(c.RecvCounts, src)*esz)
		c.Recv.WriteAt("MPI_Alltoallv recv", int(c.RecvDispls[src])*esz, m.data)
		m.recycle()
	}
	r.endCollective(c)
}

// ReduceScatter reduces element-wise across ranks and scatters segment i
// (counts[i] elements) to rank i. Implemented as reduce-to-zero followed by
// a linear scatterv.
func (r *Rank) ReduceScatter(send, recv *Buffer, counts []int32, dt Datatype, op Op, comm Comm) {
	c := r.enter(CollReduceScatter, Args{Send: send, Recv: recv, Dtype: dt, Op: op, Comm: comm, RecvCounts: counts})
	if c == nil {
		return
	}
	esz := c.Dtype.Size()
	total := 0
	for p := 0; p < c.size; p++ {
		n := int(c.RecvCounts[p])
		if n < 0 {
			abortf(r.id, c.t.String(), ErrCount, "negative count %d for segment %d", n, p)
		}
		total += n
	}
	nbytes := total * esz
	src := c.Send.ReadAt("MPI_Reduce_scatter send", 0, nbytes)
	acc, accSlab := r.scratch(nbytes)
	copy(acc, src)

	for mask := 1; mask < c.size; mask <<= 1 {
		if c.me&mask == 0 {
			if from := c.me | mask; from < c.size {
				m := c.recvFrom(from, 0, nbytes)
				combine(c.Op, c.Dtype, acc, padTo(m.data, nbytes), total)
				m.recycle()
			}
		} else {
			c.sendTo(c.me-mask, 0, acc)
			break
		}
	}
	if c.me == 0 {
		off := 0
		for p := 0; p < c.size; p++ {
			n := int(c.RecvCounts[p]) * esz
			if p == 0 {
				c.Recv.WriteAt("MPI_Reduce_scatter recv", 0, acc[off:off+n])
			} else {
				c.sendTo(p, 1, acc[off:off+n])
			}
			off += n
		}
	} else {
		m := c.recvFrom(0, 1, int(c.RecvCounts[c.me])*esz)
		c.Recv.WriteAt("MPI_Reduce_scatter recv", 0, m.data)
		m.recycle()
	}
	putSlab(accSlab)
	r.endCollective(c)
}

// Scan computes an inclusive prefix reduction: rank i's recv buffer holds
// op over the send buffers of ranks 0..i (linear chain).
func (r *Rank) Scan(send, recv *Buffer, count int, dt Datatype, op Op, comm Comm) {
	c := r.enter(CollScan, Args{Send: send, Recv: recv, Count: int32(count), Dtype: dt, Op: op, Comm: comm})
	if c == nil {
		return
	}
	nbytes := int(c.Count) * c.Dtype.Size()
	src := c.Send.ReadAt("MPI_Scan send", 0, nbytes)
	acc, accSlab := r.scratch(nbytes)
	copy(acc, src)
	if c.me > 0 {
		m := c.recvFrom(c.me-1, 0, nbytes)
		prev, prevSlab := r.scratch(nbytes)
		copy(prev, padTo(m.data, nbytes))
		m.recycle()
		combine(c.Op, c.Dtype, prev, acc, int(c.Count))
		putSlab(accSlab)
		acc, accSlab = prev, prevSlab
	}
	if c.me < c.size-1 {
		c.sendTo(c.me+1, 0, acc)
	}
	c.Recv.WriteAt("MPI_Scan recv", 0, acc)
	putSlab(accSlab)
	r.endCollective(c)
}
