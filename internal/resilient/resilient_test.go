package resilient

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/mpi"
)

func run(t *testing.T, n int, hook mpi.Hook, fn func(r *mpi.Rank) error) mpi.RunResult {
	t.Helper()
	return mpi.Run(mpi.RunOptions{NumRanks: n, Seed: 9, Hook: hook, Timeout: 10 * time.Second}, fn)
}

func TestChecksummedAllreduceCleanPath(t *testing.T) {
	res := run(t, 4, nil, func(r *mpi.Rank) error {
		send := mpi.FromFloat64s([]float64{float64(r.ID())})
		recv := mpi.NewFloat64Buffer(1)
		ChecksummedAllreduce(r, send, recv, 1, mpi.Float64, mpi.OpSum, mpi.CommWorld)
		if recv.Float64(0) != 6 {
			t.Errorf("sum = %v", recv.Float64(0))
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

// flipSendHook corrupts one rank's allreduce send buffer (the paper's
// data-buffer fault), firing only on non-error-handling calls. fired is
// atomic because hooks run on every rank's goroutine.
type flipSendHook struct {
	mpi.NopHook
	fired atomic.Bool
}

func (h *flipSendHook) BeforeCollective(c *mpi.CollectiveCall) {
	if c.Type == mpi.CollAllreduce && c.Rank == 2 && !c.ErrHandling && c.Args.Send.Len() >= 8 &&
		h.fired.CompareAndSwap(false, true) {
		c.Args.Send.FlipBit(13)
	}
}

func TestChecksummedAllreduceDetectsInjectedFault(t *testing.T) {
	res := run(t, 4, &flipSendHook{}, func(r *mpi.Rank) error {
		send := mpi.FromFloat64s([]float64{1})
		recv := mpi.NewFloat64Buffer(1)
		ChecksummedAllreduce(r, send, recv, 1, mpi.Float64, mpi.OpSum, mpi.CommWorld)
		return nil
	})
	err, ok := res.FirstError().(mpi.AppError)
	if !ok {
		t.Fatalf("checksummed allreduce should detect corruption, got %v", res.FirstError())
	}
	if want := (DetectedCorruption{Op: "MPI_Allreduce"}).Error(); err.Message != want {
		t.Fatalf("message = %q", err.Message)
	}
}

func TestVotedAllreduceMasksOneCorruptedExecution(t *testing.T) {
	// Corrupt exactly one of the three redundant executions: the vote must
	// still deliver the correct sum with no visible error.
	hook := &nthAllreduceCorrupt{target: 1}
	res := run(t, 4, hook, func(r *mpi.Rank) error {
		send := mpi.FromFloat64s([]float64{float64(r.ID())})
		recv := mpi.NewFloat64Buffer(1)
		VotedAllreduce(r, send, recv, 1, mpi.Float64, mpi.OpSum, mpi.CommWorld)
		if recv.Float64(0) != 6 {
			t.Errorf("voted sum = %v, want 6", recv.Float64(0))
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatalf("single corrupted execution should be masked: %v", err)
	}
}

// nthAllreduceCorrupt flips a send-buffer bit in the target-th allreduce
// on rank 1.
type nthAllreduceCorrupt struct {
	mpi.NopHook
	target int
	seen   int
}

func (h *nthAllreduceCorrupt) BeforeCollective(c *mpi.CollectiveCall) {
	if c.Type != mpi.CollAllreduce || c.Rank != 1 {
		return
	}
	if h.seen == h.target && c.Args.Send.Len() >= 8 {
		c.Args.Send.FlipBit(20)
	}
	h.seen++
}

func TestVotedAllreducePlainCorrectness(t *testing.T) {
	res := run(t, 8, nil, func(r *mpi.Rank) error {
		send := mpi.FromFloat64s([]float64{1, float64(r.ID())})
		recv := mpi.NewFloat64Buffer(2)
		VotedAllreduce(r, send, recv, 2, mpi.Float64, mpi.OpSum, mpi.CommWorld)
		if recv.Float64(0) != 8 || recv.Float64(1) != 28 {
			t.Errorf("voted = %v %v", recv.Float64(0), recv.Float64(1))
		}
		return nil
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}
