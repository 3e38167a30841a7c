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
	want      matcher
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
	_, want := r.recvArgs("MPI_Irecv", args.Comm, args.Peer, args.Tag, true)
	return &Request{rank: r, isRecv: true, want: want}
}

// Wait blocks until the request completes and returns the received payload
// (nil for sends). Waiting twice returns the same payload.
func (req *Request) Wait() []byte {
	if req.completed {
		return req.data
	}
	if req.isRecv {
		m := req.rank.recvMatch(req.want)
		req.data = m.payload()
	}
	req.completed = true
	return req.data
}

// Test reports whether the request can complete without blocking, and
// completes it if so: a receive takes a match if one has arrived.
func (req *Request) Test() (bool, []byte) {
	if req.completed {
		return true, req.data
	}
	if !req.isRecv {
		req.completed = true
		return true, nil
	}
	w := req.rank.world
	w.mu.Lock()
	m, ok := req.rank.take(&req.want)
	w.mu.Unlock()
	if !ok {
		return false, nil
	}
	req.data = m.payload()
	req.completed = true
	return true, req.data
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
