package mpi

// Convenience wrappers used by the bundled applications. Each marshals Go
// values through simulated-memory buffers around a collective call; the
// buffers are what a fault injector corrupts, and corrupted results flow
// back into application state through the returned slices. The buffers are
// rank-bound so their backing arrays come from (and return to) the arena.
// A wrapper's send buffer is marked temp: the application never sees it, so
// a flip left in it dies with the wrapper (fork.go, part 3). So is the recv
// buffer of a non-root ReduceFloat64s, which returns nil there. Bcast's one
// buffer and every other recv buffer are decoded whole and are not.

func (b *Buffer) asTemp() *Buffer {
	b.temp = true
	return b
}

// AllreduceFloat64s reduces vals element-wise across comm with op.
func (r *Rank) AllreduceFloat64s(vals []float64, op Op, comm Comm) []float64 {
	if r.replayActive() {
		// During fork replay the inputs are discarded and the result is on
		// the tape, so the wrappers skip the marshal + result-copy + decode
		// round-trip and read the recorded span directly (see
		// replayCollectiveBytes). Same pattern in every wrapper below.
		return float64sFrom(r.replayCollectiveBytes(CollAllreduce, comm))
	}
	send := r.FromFloat64s(vals).asTemp()
	recv := r.NewFloat64Buffer(len(vals))
	r.Allreduce(send, recv, len(vals), Float64, op, comm)
	out := recv.Float64s()
	send.Release()
	recv.Release()
	return out
}

// AllreduceFloat64 reduces a single float64 across comm with op.
func (r *Rank) AllreduceFloat64(v float64, op Op, comm Comm) float64 {
	return r.AllreduceFloat64s([]float64{v}, op, comm)[0]
}

// AllreduceInt64s reduces vals element-wise across comm with op.
func (r *Rank) AllreduceInt64s(vals []int64, op Op, comm Comm) []int64 {
	if r.replayActive() {
		return int64sFrom(r.replayCollectiveBytes(CollAllreduce, comm))
	}
	send := r.FromInt64s(vals).asTemp()
	recv := r.NewInt64Buffer(len(vals))
	r.Allreduce(send, recv, len(vals), Int64, op, comm)
	out := recv.Int64s()
	send.Release()
	recv.Release()
	return out
}

// AllreduceInt64 reduces a single int64 across comm with op.
func (r *Rank) AllreduceInt64(v int64, op Op, comm Comm) int64 {
	return r.AllreduceInt64s([]int64{v}, op, comm)[0]
}

// ReduceFloat64s reduces vals to root; non-root ranks receive nil.
func (r *Rank) ReduceFloat64s(vals []float64, op Op, root int, comm Comm) []float64 {
	if r.replayActive() {
		// The tape records a result span only on the root, so the recorded
		// length also encodes the root/non-root return convention.
		if b := r.replayCollectiveBytes(CollReduce, comm); b != nil {
			return float64sFrom(b)
		}
		return nil
	}
	isRoot := r.CommRank(comm) == root
	send := r.FromFloat64s(vals).asTemp()
	recv := r.NewFloat64Buffer(len(vals))
	if !isRoot {
		recv.asTemp()
	}
	r.Reduce(send, recv, len(vals), Float64, op, root, comm)
	var out []float64
	if isRoot {
		out = recv.Float64s()
	}
	send.Release()
	recv.Release()
	return out
}

// BcastFloat64s broadcasts vals from root; every rank passes a slice of the
// same length and receives the root's values back.
func (r *Rank) BcastFloat64s(vals []float64, root int, comm Comm) []float64 {
	if r.replayActive() {
		return float64sFrom(r.replayCollectiveBytes(CollBcast, comm))
	}
	buf := r.FromFloat64s(vals)
	r.Bcast(buf, len(vals), Float64, root, comm)
	out := buf.Float64s()
	buf.Release()
	return out
}

// BcastInt64s broadcasts vals from root.
func (r *Rank) BcastInt64s(vals []int64, root int, comm Comm) []int64 {
	if r.replayActive() {
		return int64sFrom(r.replayCollectiveBytes(CollBcast, comm))
	}
	buf := r.FromInt64s(vals)
	r.Bcast(buf, len(vals), Int64, root, comm)
	out := buf.Int64s()
	buf.Release()
	return out
}

// AllgatherInt64s gathers one int64 per rank into a slice indexed by rank.
func (r *Rank) AllgatherInt64s(v int64, comm Comm) []int64 {
	if r.replayActive() {
		return int64sFrom(r.replayCollectiveBytes(CollAllgather, comm))
	}
	size := r.Size(comm)
	send := r.FromInt64s([]int64{v}).asTemp()
	recv := r.NewInt64Buffer(size)
	r.Allgather(send, recv, 1, Int64, comm)
	out := recv.Int64s()
	send.Release()
	recv.Release()
	return out
}

// AllgatherFloat64s gathers vals (same length on every rank) into a
// rank-major slice.
func (r *Rank) AllgatherFloat64s(vals []float64, comm Comm) []float64 {
	if r.replayActive() {
		return float64sFrom(r.replayCollectiveBytes(CollAllgather, comm))
	}
	size := r.Size(comm)
	send := r.FromFloat64s(vals).asTemp()
	recv := r.NewFloat64Buffer(size * len(vals))
	r.Allgather(send, recv, len(vals), Float64, comm)
	out := recv.Float64s()
	send.Release()
	recv.Release()
	return out
}

// GatherFloat64s gathers vals at root; non-root ranks receive nil.
func (r *Rank) GatherFloat64s(vals []float64, root int, comm Comm) []float64 {
	if r.replayActive() {
		if b := r.replayCollectiveBytes(CollGather, comm); b != nil {
			return float64sFrom(b)
		}
		return nil
	}
	size := r.Size(comm)
	send := r.FromFloat64s(vals).asTemp()
	var recv *Buffer
	if r.CommRank(comm) == root {
		recv = r.NewFloat64Buffer(size * len(vals))
	} else {
		recv = r.NewFloat64Buffer(0)
	}
	r.Gather(send, recv, len(vals), Float64, root, comm)
	var out []float64
	if r.CommRank(comm) == root {
		out = recv.Float64s()
	}
	send.Release()
	recv.Release()
	return out
}
