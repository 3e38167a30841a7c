package mpi

// Comm is a communicator handle, analogous to MPI_Comm, using the same
// MPICH-style kind encoding as Datatype and Op: a kind tag in the upper
// bits and a communicator-table index in the lower bits. Index-bit
// corruptions are caught by validation (MPI_ERR_COMM); kind-bit
// corruptions make the value look like a pointer, which the library
// dereferences — and crashes.
type Comm int32

// commKindTag marks communicator handles (upper 16 bits).
const commKindTag = 0x3C

const commKind Comm = commKindTag << 16

func (c Comm) kindOK() bool { return uint32(c)>>16 == commKindTag }

func (c Comm) index() int { return int(uint32(c) & 0xFFFF) }

// commDeref resolves a communicator handle, applying the library's handle
// discipline: pointer-like values are dereferenced (simulated SIGSEGV),
// handle-space values are validated against the communicator table. It
// reads the table under World.mu, so it is never called with mu held.
func (r *Rank) commDeref(c Comm) *commInfo {
	if !c.kindOK() {
		panic(SegFault{Op: "dereference of corrupted communicator handle", Offset: int(c), Length: 1})
	}
	r.world.mu.Lock()
	defer r.world.mu.Unlock()
	if c.index() >= len(r.world.comms) {
		abortf(r.id, "communicator lookup", ErrComm, "invalid communicator handle index %d", c.index())
	}
	return r.world.comms[c.index()]
}

// Size returns the number of ranks in comm.
func (r *Rank) Size(comm Comm) int { return len(r.commDeref(comm).members) }

// CommRank returns this process's rank within comm, or -1 if it is not a
// member.
func (r *Rank) CommRank(comm Comm) int {
	ci := r.commDeref(comm)
	if me, ok := ci.rankOf[r.id]; ok {
		return me
	}
	return -1
}

// CommDup duplicates comm. Like MPI_Comm_dup it is collective: every member
// must call it, and all receive the same new handle. The new communicator
// has a fresh collective sequence space, providing the usual isolation for
// library traffic.
func (r *Rank) CommDup(comm Comm) Comm {
	if r.world.rec != nil {
		r.world.rec.poison("derived communicator (CommDup)")
	}
	ci := r.commDeref(comm)
	me := ci.rankOf[r.id]
	seq := r.joinSeq(ci, comm, me, false)
	if me == 0 {
		members := make([]int, len(ci.members))
		copy(members, ci.members)
		h := r.world.addComm(members)
		for p := 1; p < len(ci.members); p++ {
			r.post(ci, comm, p, internalTag(seq, 0), FromInt64s([]int64{int64(h)}).Bytes(), nil)
		}
		return h
	}
	m := r.recvMatch(matcher{comm, 0, internalTag(seq, 0)})
	h := Comm((&Buffer{mem: m.data}).Int64(0))
	m.recycle()
	return h
}

// CommSplit partitions comm by color, ordering members of each partition by
// (key, rank). Every member must call it. Ranks passing the same color end
// up in the same new communicator; the returned handles are world-unique.
func (r *Rank) CommSplit(comm Comm, color, key int) Comm {
	if r.world.rec != nil {
		r.world.rec.poison("derived communicator (CommSplit)")
	}
	ci := r.commDeref(comm)
	me := ci.rankOf[r.id]
	size := len(ci.members)
	seq := r.joinSeq(ci, comm, me, false)

	// Gather (color, key) pairs at rank 0 of the parent communicator.
	if me != 0 {
		r.post(ci, comm, 0, internalTag(seq, 0), FromInt64s([]int64{int64(color), int64(key)}).Bytes(), nil)
		m := r.recvMatch(matcher{comm, 0, internalTag(seq, 1)})
		h := Comm((&Buffer{mem: m.data}).Int64(0))
		m.recycle()
		return h
	}

	colors := make([]int, size)
	keys := make([]int, size)
	colors[0], keys[0] = color, key
	for p := 1; p < size; p++ {
		m := r.recvMatch(matcher{comm, p, internalTag(seq, 0)})
		b := &Buffer{mem: m.data}
		colors[p], keys[p] = int(b.Int64(0)), int(b.Int64(1))
		m.recycle()
	}

	// Build one communicator per color, members sorted by (key, parent rank).
	handles := make([]Comm, size)
	seen := map[int]Comm{}
	for p := 0; p < size; p++ {
		c := colors[p]
		if _, ok := seen[c]; ok {
			continue
		}
		var group []int
		for q := 0; q < size; q++ {
			if colors[q] == c {
				group = append(group, q)
			}
		}
		// insertion sort by (key, rank): groups are tiny
		for i := 1; i < len(group); i++ {
			for j := i; j > 0; j-- {
				a, b := group[j-1], group[j]
				if keys[a] > keys[b] || (keys[a] == keys[b] && a > b) {
					group[j-1], group[j] = group[j], group[j-1]
				} else {
					break
				}
			}
		}
		members := make([]int, len(group))
		for i, q := range group {
			members[i] = ci.members[q]
		}
		seen[c] = r.world.addComm(members)
	}
	for p := 0; p < size; p++ {
		handles[p] = seen[colors[p]]
	}
	for p := 1; p < size; p++ {
		r.post(ci, comm, p, internalTag(seq, 1), FromInt64s([]int64{int64(handles[p])}).Bytes(), nil)
	}
	return handles[0]
}

// addComm registers a new communicator and returns its handle. It grows the
// table under World.mu, so it is never called with mu held.
func (w *World) addComm(members []int) Comm {
	rankOf := make(map[int]int, len(members))
	for i, m := range members {
		rankOf[m] = i
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	h := commKind | Comm(len(w.comms))
	ci := &commInfo{handle: h, members: members, rankOf: rankOf}
	if w.meetOn {
		ci.arrived = make([]int64, len(members))
	}
	w.comms = append(w.comms, ci)
	return h
}

// internalTag builds a tag in the collective namespace, disjoint from user
// tags, keyed by the per-communicator sequence number and the algorithm
// round within the collective.
func internalTag(seq int64, round int) int64 {
	return int64(maxUserTag) + seq*1024 + int64(round)
}
