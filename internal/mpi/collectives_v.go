package mpi

// The v-variant rooted collectives: MPI_Scatterv and MPI_Gatherv, with
// per-rank counts and displacements in elements of the datatype. Like the
// other collectives, each rank trusts its own (possibly corrupted)
// argument set; disagreement surfaces as truncation errors, stray reads,
// overruns or deadlock.

// Scatterv distributes counts[i] elements starting at displs[i] of root's
// send buffer to rank i's recv buffer (recvCount elements posted).
func (r *Rank) Scatterv(send *Buffer, sendCounts, sendDispls []int32, recv *Buffer, recvCount int, dt Datatype, root int, comm Comm) {
	c := r.enter(CollScatterv, Args{
		Send: send, Recv: recv, Count: int32(recvCount), Dtype: dt,
		Root: int32(root), Comm: comm,
		SendCounts: sendCounts, SendDispls: sendDispls,
	})
	if c == nil {
		return
	}
	esz := c.Dtype.Size()
	want := int(c.Count) * esz
	if c.me == int(c.Root) {
		for p := 0; p < c.size; p++ {
			n := int(c.SendCounts[p])
			if n < 0 {
				abortf(r.id, c.t.String(), ErrCount, "negative count %d for peer %d", n, p)
			}
			payload := c.Send.ReadAt("MPI_Scatterv send", int(c.SendDispls[p])*esz, n*esz)
			if p == c.me {
				if len(payload) > want {
					abortf(r.id, c.t.String(), ErrTruncate, "self message of %d bytes truncated to %d", len(payload), want)
				}
				c.Recv.WriteAt("MPI_Scatterv recv", 0, payload)
			} else {
				c.sendTo(p, 0, payload)
			}
		}
	} else {
		m := c.recvFrom(int(c.Root), 0, want)
		c.Recv.WriteAt("MPI_Scatterv recv", 0, m.data)
		m.recycle()
	}
	r.endCollective(c)
}

// Gatherv collects sendCount elements from every rank into root's recv
// buffer at displs[i], expecting counts[i] elements from rank i.
func (r *Rank) Gatherv(send *Buffer, sendCount int, recv *Buffer, recvCounts, recvDispls []int32, dt Datatype, root int, comm Comm) {
	c := r.enter(CollGatherv, Args{
		Send: send, Recv: recv, Count: int32(sendCount), Dtype: dt,
		Root: int32(root), Comm: comm,
		RecvCounts: recvCounts, RecvDispls: recvDispls,
	})
	if c == nil {
		return
	}
	esz := c.Dtype.Size()
	if c.me == int(c.Root) {
		for p := 0; p < c.size; p++ {
			n := int(c.RecvCounts[p])
			if n < 0 {
				abortf(r.id, c.t.String(), ErrCount, "negative count %d for peer %d", n, p)
			}
			want := n * esz
			if p == c.me {
				data := c.Send.ReadAt("MPI_Gatherv send", 0, int(c.Count)*esz)
				if len(data) > want {
					abortf(r.id, c.t.String(), ErrTruncate, "self message of %d bytes truncated to %d", len(data), want)
				}
				c.Recv.WriteAt("MPI_Gatherv recv", int(c.RecvDispls[p])*esz, data)
			} else {
				m := c.recvFrom(p, 0, want)
				c.Recv.WriteAt("MPI_Gatherv recv", int(c.RecvDispls[p])*esz, m.data)
				m.recycle()
			}
		}
	} else {
		c.sendTo(int(c.Root), 0, c.Send.ReadAt("MPI_Gatherv send", 0, int(c.Count)*esz))
	}
	r.endCollective(c)
}
