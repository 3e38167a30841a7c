package mpi

// Nonblocking point-to-point operations, in the style of MPI_Isend /
// MPI_Irecv / MPI_Wait. The simulation uses deferred matching: an Isend is
// eagerly buffered at the destination (it only blocks when the peer's
// mailbox is saturated, as an eager-protocol MPI would); an Irecv records
// the posted receive and performs the match at Wait/Test time. Requests
// are owned by the posting rank's goroutine and are not safe for
// concurrent use — the same rule real MPI imposes.

// Request is a pending nonblocking operation.
type Request struct {
	rank      *Rank
	isRecv    bool
	comm      Comm
	src       int
	tag       int64
	data      []byte
	completed bool
}

// Isend starts a nonblocking send. The payload is buffered eagerly; the
// returned request completes at Wait (immediately, unless the destination
// mailbox applies backpressure during the call itself).
func (r *Rank) Isend(comm Comm, dst, tag int, data []byte) *Request {
	r.Send(comm, dst, tag, data)
	return &Request{rank: r, completed: true}
}

// Irecv posts a nonblocking receive; the match happens at Wait or Test.
// src may be AnySource and tag may be AnyTag.
func (r *Rank) Irecv(comm Comm, src, tag int) *Request {
	if r.world.rec != nil {
		// Deferred matching decouples the receive from its tape position;
		// such apps use full replay.
		r.world.rec.poison("nonblocking receive (Irecv)")
	}
	args := r.beginP2P(P2PRecv, P2PArgs{Peer: src, Tag: tag, Comm: comm})
	if args.Tag != AnyTag && (args.Tag < 0 || args.Tag >= maxUserTag) {
		abortf(r.id, "MPI_Irecv", ErrTag, "tag %d outside [0,%d)", args.Tag, maxUserTag)
	}
	ci := r.commDeref(args.Comm)
	if args.Peer != AnySource && (args.Peer < 0 || args.Peer >= len(ci.members)) {
		abortf(r.id, "MPI_Irecv", ErrRank, "source %d outside communicator of size %d", args.Peer, len(ci.members))
	}
	t := int64(args.Tag)
	if args.Tag == AnyTag {
		t = anyTagSentinel
	}
	return &Request{rank: r, isRecv: true, comm: args.Comm, src: args.Peer, tag: t}
}

// Wait blocks until the request completes and returns the received payload
// (nil for sends). Waiting twice returns the same payload.
func (req *Request) Wait() []byte {
	if req.completed {
		return req.data
	}
	if req.isRecv {
		m := req.rank.recvMatch(req.comm, req.src, req.tag)
		req.data = m.payload()
	}
	req.completed = true
	return req.data
}

// Test reports whether the request can complete without blocking, and
// completes it if so. For receives it drains the mailbox into the pending
// list and checks for a match.
func (req *Request) Test() (bool, []byte) {
	if req.completed {
		return true, req.data
	}
	if !req.isRecv {
		req.completed = true
		return true, nil
	}
	r := req.rank
	// Drain whatever is already delivered.
	for {
		select {
		case m := <-r.inbox:
			r.world.absorbed.Add(1)
			r.pending = append(r.pending, m)
		default:
			goto drained
		}
	}
drained:
	match := func(m message) bool {
		if m.comm != req.comm {
			return false
		}
		if req.src != AnySource && m.src != req.src {
			return false
		}
		if req.tag == anyTagSentinel {
			return m.tag >= 0 && m.tag < maxUserTag
		}
		return m.tag == req.tag
	}
	for i, m := range r.pending {
		if match(m) {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			req.data = m.payload()
			req.completed = true
			return true, req.data
		}
	}
	return false, nil
}

// Waitall completes all requests in order and returns the receive payloads
// (nil entries for sends).
func (r *Rank) Waitall(reqs ...*Request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		out[i] = req.Wait()
	}
	return out
}
