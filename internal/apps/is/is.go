// Package is implements a miniature of the NAS Parallel Benchmarks IS
// kernel: a bucketed parallel integer sort. Its communication skeleton is
// the one that matters for fault studies and matches NPB IS: an
// MPI_Allreduce of per-bucket key counts, an MPI_Alltoall of send counts,
// an MPI_Alltoallv redistributing the keys, partial verification every
// iteration, and a full verification with Reduce/Allreduce at the end.
//
// Like the Fortran/C original, all arrays are statically sized from the
// compile-time problem class (the Config), while the values broadcast at
// startup drive loop bounds and MPI counts. A corrupted broadcast or
// histogram therefore walks off the ends of static arrays (SEG_FAULT),
// truncates messages (MPI_ERR) or silently misroutes keys — the behaviours
// behind NPB IS's crash-heavy sensitivity profile in the paper's Fig. 7.
//
// The bucket-to-rank assignment is computed from the *allreduced* bucket
// histogram, so a fault in that collective propagates into the counts and
// displacements handed to MPI_Alltoallv.
package is

import (
	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/mpi"
)

// IS is the integer-sort workload.
type IS struct{}

// New returns the IS workload.
func New() apps.App { return IS{} }

// Name implements apps.App.
func (IS) Name() string { return "is" }

// DefaultConfig implements apps.App: Scale is keys per rank.
func (IS) DefaultConfig() apps.Config {
	return apps.Config{Ranks: 16, Scale: 512, Iters: 3, Seed: 314159}
}

// Check implements apps.Checker: IS runs any positive size.
func (a IS) Check(cfg apps.Config) error { return apps.Require(a, cfg, true, "") }

// strayWriteLimit emulates the heap slack around the statically allocated
// key-count array: NPB IS class B ranks keys in a 2^23-entry table, so a
// corrupted key usually lands in allocated memory (a silent stray write)
// rather than unmapped pages. Keys beyond this window crash.
const strayWriteLimit = 1 << 28

// Main implements apps.App.
func (IS) Main(r *mpi.Rank, cfg apps.Config) error {
	nproc := r.NumRanks()

	// Static ("compile-time") problem dimensions, as in the Fortran/C
	// original: array sizes never change, whatever the broadcast says.
	nkeysStatic, itersStatic := cfg.Scale, cfg.Iters
	maxKeyStatic := 4 * nkeysStatic
	// NPB IS uses 2^10 buckets; many buckets per rank keep the greedy
	// bucket-to-rank assignment balanced.
	nbucketsStatic := 8 * nproc

	// --- init phase: distribute runtime parameters from rank 0 ---
	r.SetPhase(mpi.PhaseInit)
	params := r.BcastInt64s([]int64{int64(nkeysStatic), int64(maxKeyStatic), int64(nbucketsStatic), int64(itersStatic)}, 0, mpi.CommWorld)
	nkeys := int(params[0])
	maxKey := int(params[1])
	nbuckets := int(params[2])
	iters := int(params[3])
	r.Barrier(mpi.CommWorld)

	// Static arrays (generous factors mirror NPB's SIZE_OF_BUFFERS slack).
	keys := make([]int32, nkeysStatic)
	localHist := make([]int32, nbucketsStatic)
	sortBuf := make([]int32, 4*nkeysStatic) // received keys (key_buff2)
	countArr := make([]int32, maxKeyStatic) // ranking array (key_buff1)
	outKeys := make([]int32, 2*nkeysStatic) // send staging

	// --- input phase: pseudo-random key generation ---
	r.SetPhase(mpi.PhaseInput)
	r.Tick(nkeys*5 + 10)
	rng := r.SeededRand(cfg.Seed + int64(r.ID())*6007)
	for i := 0; i < nkeys; i++ {
		// NPB IS keys are the average of four uniform draws, giving a
		// binomial-ish distribution centred at maxKey/2.
		keys[i] = int32((rng.Int63n(int64(maxKey)) + rng.Int63n(int64(maxKey)) +
			rng.Int63n(int64(maxKey)) + rng.Int63n(int64(maxKey))) / 4)
	}

	bucketOf := func(k int32) int {
		b := int(k) * nbuckets / maxKey
		if b < 0 {
			b = 0
		}
		if b >= nbuckets {
			b = nbuckets - 1
		}
		return b
	}

	// --- compute phase: iterated rank-and-redistribute ---
	r.SetPhase(mpi.PhaseCompute)
	var sorted []int32
	verifyFailures := int64(0)
	for it := 0; it < iters; it++ {
		r.Tick(nkeys + maxKey + nbuckets + 100)

		// NPB perturbs two keys per iteration.
		keys[it%nkeys] = int32(it)
		keys[(it+nkeys/2)%nkeys] = int32(maxKey - it - 1)

		// Local bucket histogram into the static array.
		for i := range localHist {
			localHist[i] = 0
		}
		for i := 0; i < nkeys; i++ {
			localHist[bucketOf(keys[i])]++
		}

		// Global histogram: the collective whose corruption cascades.
		histBuf := r.FromInt32s(localHist)
		globBuf := r.NewInt32Buffer(nbucketsStatic)
		r.Allreduce(histBuf, globBuf, nbuckets, mpi.Int32, mpi.OpSum, mpi.CommWorld)
		global := globBuf.Int32s()
		histBuf.Release()
		globBuf.Release()

		// Assign contiguous bucket ranges to ranks, balancing key counts
		// using the (possibly corrupted) global histogram.
		total := int64(0)
		for b := 0; b < nbuckets; b++ {
			total += int64(global[b])
		}
		ownerOf := make([]int, nbucketsStatic) // static; corrupted nbuckets faults on indexing
		perRank := total/int64(nproc) + 1
		owner, acc := 0, int64(0)
		for b := 0; b < nbuckets; b++ {
			ownerOf[b] = owner
			acc += int64(global[b])
			if acc >= perRank && owner < nproc-1 {
				owner++
				acc = 0
			}
		}

		// Count keys per destination and exchange counts.
		sendCounts := make([]int32, nproc)
		for i := 0; i < nkeys; i++ {
			sendCounts[ownerOf[bucketOf(keys[i])]]++
		}
		scBuf := r.FromInt32s(sendCounts)
		rcBuf := r.NewInt32Buffer(nproc)
		r.Alltoall(scBuf, rcBuf, 1, mpi.Int32, mpi.CommWorld)
		recvCounts := rcBuf.Int32s()
		scBuf.Release()
		rcBuf.Release()

		// Displacements and the key exchange into static staging buffers.
		sendDispls := make([]int32, nproc)
		recvDispls := make([]int32, nproc)
		var sTot, rTot int32
		for p := 0; p < nproc; p++ {
			sendDispls[p] = sTot
			recvDispls[p] = rTot
			sTot += sendCounts[p]
			rTot += recvCounts[p]
		}
		cursor := append([]int32(nil), sendDispls...)
		for i := 0; i < nkeys; i++ {
			k := keys[i]
			p := ownerOf[bucketOf(k)]
			outKeys[cursor[p]] = k // static buffer: overflow faults
			cursor[p]++
		}
		sendBuf := r.FromInt32s(outKeys)
		recvBuf := r.FromInt32s(sortBuf)
		r.Alltoallv(sendBuf, sendCounts, sendDispls, recvBuf, recvCounts, recvDispls, mpi.Int32, mpi.CommWorld)
		r.Tick(int(rTot) + 1)
		if rTot < 0 || int(rTot) > len(sortBuf) {
			// MPI wrote past the static receive buffer on a real machine;
			// here the displacements already faulted inside Alltoallv for
			// most corruptions, this guards the sum itself.
			panic(mpi.SegFault{Op: "IS key_buff2 overflow", Offset: 0, Length: int(rTot), Bound: len(sortBuf)})
		}
		received := recvBuf.Int32s()[:rTot]
		sendBuf.Release()
		recvBuf.Release()

		// Counting sort of the received keys in the static ranking array.
		for i := range countArr {
			countArr[i] = 0
		}
		for _, k := range received {
			switch {
			case int64(k) < 0 || int64(k) >= strayWriteLimit:
				// Far outside the allocation: unmapped page.
				panic(mpi.SegFault{Op: "IS counting sort", Offset: int(k), Length: 4, Bound: maxKeyStatic})
			case int(k) >= maxKeyStatic:
				// Within heap slack: a silent stray write. The count lands
				// on whatever the address aliases to.
				countArr[int(k)%maxKeyStatic]++
			default:
				countArr[k]++
			}
		}
		sorted = sorted[:0]
		for k, c := range countArr {
			for j := int32(0); j < c; j++ {
				sorted = append(sorted, int32(k))
			}
		}

		// Partial verification (per iteration, as in NPB): sample-based —
		// the original tests five known keys, so only gross misrouting is
		// caught here, not single corrupted keys.
		misrouted := 0
		for _, k := range sorted {
			if ownerOf[bucketOf(k)] != r.ID() {
				misrouted++
			}
		}
		if misrouted*20 > len(sorted) { // >5% of keys in the wrong bucket
			r.Abort("IS partial verification failed: keys misrouted")
		}
	}

	// --- end phase: full verification ---
	r.SetPhase(mpi.PhaseEnd)
	// Boundary check: my smallest key must not precede my left neighbour's
	// largest key.
	var myMin, myMax int32 = 1<<31 - 1, -1
	for _, k := range sorted {
		if k < myMin {
			myMin = k
		}
		if k > myMax {
			myMax = k
		}
	}
	if r.ID() < nproc-1 {
		maxBuf := r.FromInt32s([]int32{myMax})
		r.Send(mpi.CommWorld, r.ID()+1, 11, maxBuf.Bytes())
		maxBuf.Release()
	}
	if r.ID() > 0 {
		raw := r.Recv(mpi.CommWorld, r.ID()-1, 11)
		buf := mpi.NewInt32Buffer(1)
		copy(buf.Bytes(), raw)
		if leftMax := buf.Int32(0); len(sorted) > 0 && leftMax > myMin {
			verifyFailures++
		}
	}
	// Local ordering check.
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			verifyFailures++
			break
		}
	}
	// Global verification collectives: classic NPB-style error handling.
	var verified float64 = 1
	r.ErrCheck(func() {
		totalKeys := r.AllreduceInt64(int64(len(sorted)), mpi.OpSum, mpi.CommWorld)
		totalFailures := r.AllreduceInt64(verifyFailures, mpi.OpSum, mpi.CommWorld)
		if totalKeys != int64(nkeys*nproc) || totalFailures != 0 {
			verified = 0
		}
	})

	// The program's printed output: the verification verdict (like NPB's
	// "VERIFICATION SUCCESSFUL") and the problem size, reported on the
	// root only — internal key values are not program output.
	sizeSum := r.ReduceFloat64s([]float64{float64(len(sorted))}, mpi.OpSum, 0, mpi.CommWorld)
	if r.ID() == 0 {
		r.ReportResult(verified, sizeSum[0])
	}
	if verified == 0 {
		// NPB prints "VERIFICATION FAILED" and exits with an error code.
		r.Abort("IS full verification failed")
	}
	return nil
}
