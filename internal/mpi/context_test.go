package mpi

import (
	"context"
	"testing"
	"time"
)

func TestRunContextCancelKillsBlockedRanks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := Run(RunOptions{NumRanks: 4, Timeout: 30 * time.Second, WorkBudget: -1, Context: ctx}, func(r *Rank) error {
		if r.ID() == 0 {
			// Rank 0 spins on Tick and never reaches the barrier: the
			// other ranks block, and only cancellation (which Tick
			// observes) ends the run before the wall-clock timeout.
			for {
				r.Tick(1)
				time.Sleep(100 * time.Microsecond)
			}
		}
		r.Barrier(CommWorld)
		return nil
	})
	if !res.Cancelled {
		t.Fatalf("expected Cancelled, got %+v", res)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, should be prompt", elapsed)
	}
	if res.FirstError() == nil {
		t.Fatal("cancelled ranks should report an error")
	}
}

// TestRunContextAlreadyDone: a run whose context is done before it starts
// launches no rank and is Cancelled, every rank killed for it; it never
// reports the deadlock its ranks would freeze into before the
// cancellation was read.
func TestRunContextAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(RunOptions{NumRanks: 2, Timeout: 30 * time.Second, Context: ctx}, func(r *Rank) error {
		t.Errorf("rank %d ran", r.ID())
		r.Recv(CommWorld, r.ID()^1, 99)
		return nil
	})
	if !res.Cancelled || res.Provenance != Cancelled || res.Deadlock {
		t.Fatalf("expected Cancelled for pre-cancelled context, got %+v", res)
	}
	for i, rr := range res.Ranks {
		if rr.Rank != i || rr.Err != (Killed{Reason: Cancelled.String()}) {
			t.Errorf("rank %d ended %+v", i, rr)
		}
	}
}

func TestRunNilContextCompletes(t *testing.T) {
	res := Run(RunOptions{NumRanks: 4}, func(r *Rank) error {
		r.Barrier(CommWorld)
		return nil
	})
	if res.Cancelled || res.FirstError() != nil {
		t.Fatalf("clean run should complete: %+v", res)
	}
}
