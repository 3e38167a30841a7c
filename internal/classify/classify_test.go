package classify

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/fastfit/fastfit/internal/mpi"
)

func mkRun(values ...[]float64) mpi.RunResult {
	res := mpi.RunResult{}
	for i, v := range values {
		res.Ranks = append(res.Ranks, mpi.RankResult{Rank: i, Values: v})
	}
	return res
}

func withErr(res mpi.RunResult, rank int, err error) mpi.RunResult {
	res.Ranks[rank].Err = err
	return res
}

func TestClassifySuccess(t *testing.T) {
	golden := mkRun([]float64{1.5, 2.5}, []float64{3})
	same := mkRun([]float64{1.5, 2.5}, []float64{3})
	if got := Classify(golden, same); got != Success {
		t.Fatalf("got %v, want SUCCESS", got)
	}
}

func TestClassifyToleratesTinyDeviation(t *testing.T) {
	golden := mkRun([]float64{1e6})
	close := mkRun([]float64{1e6 + 1e-4}) // relative 1e-10 < tol 1e-9
	if got := Classify(golden, close); got != Success {
		t.Fatalf("tiny deviation should be SUCCESS, got %v", got)
	}
}

func TestClassifyWrongAnswer(t *testing.T) {
	golden := mkRun([]float64{1.5})
	wrong := mkRun([]float64{1.6})
	if got := Classify(golden, wrong); got != WrongAns {
		t.Fatalf("got %v, want WRONG_ANS", got)
	}
}

func TestClassifyMissingValuesIsWrongAnswer(t *testing.T) {
	golden := mkRun([]float64{1, 2})
	short := mkRun([]float64{1})
	if got := Classify(golden, short); got != WrongAns {
		t.Fatalf("got %v", got)
	}
	if got := Classify(golden, mpi.RunResult{}); got != WrongAns {
		t.Fatalf("rank-count mismatch should be WRONG_ANS, got %v", got)
	}
}

func TestClassifyNaNIsWrongAnswer(t *testing.T) {
	golden := mkRun([]float64{1})
	nan := mkRun([]float64{math.NaN()})
	if got := Classify(golden, nan); got != WrongAns {
		t.Fatalf("NaN output should be WRONG_ANS, got %v", got)
	}
}

func TestClassifyErrorPriorities(t *testing.T) {
	golden := mkRun([]float64{1}, []float64{1})
	cases := []struct {
		err  error
		want Outcome
	}{
		{mpi.SegFault{Op: "x"}, SegFault},
		{mpi.MPIError{Class: mpi.ErrCount}, MPIErr},
		{mpi.AppError{Message: "lost atoms"}, AppDetected},
		{mpi.Killed{Reason: "deadlock"}, InfLoop},
	}
	for _, c := range cases {
		res := withErr(mkRun([]float64{1}, []float64{1}), 1, c.err)
		if got := Classify(golden, res); got != c.want {
			t.Errorf("%T -> %v, want %v", c.err, got, c.want)
		}
	}
}

func TestClassifyCrashBeatsAbort(t *testing.T) {
	golden := mkRun([]float64{1}, []float64{1})
	res := mkRun([]float64{1}, []float64{1})
	res = withErr(res, 0, mpi.AppError{Message: "detected"})
	res = withErr(res, 1, mpi.SegFault{Op: "boom"})
	if got := Classify(golden, res); got != SegFault {
		t.Fatalf("crash should dominate abort, got %v", got)
	}
}

func TestClassifyDeadlockFlag(t *testing.T) {
	golden := mkRun([]float64{1})
	res := mkRun([]float64{1})
	res.Deadlock = true
	if got := Classify(golden, res); got != InfLoop {
		t.Fatalf("deadlock should be INF_LOOP, got %v", got)
	}
	res.Deadlock = false
	res.TimedOut = true
	if got := Classify(golden, res); got != InfLoop {
		t.Fatalf("timeout should be INF_LOOP, got %v", got)
	}
}

func TestOutcomeIsError(t *testing.T) {
	if Success.IsError() {
		t.Error("SUCCESS is not an error")
	}
	for o := AppDetected; o < NumOutcomes; o++ {
		if !o.IsError() {
			t.Errorf("%v should be an error", o)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := []string{"SUCCESS", "APP_DETECTED", "MPI_ERR", "SEG_FAULT", "WRONG_ANS", "INF_LOOP"}
	for o := Outcome(0); o < NumOutcomes; o++ {
		if o.String() != want[o] {
			t.Errorf("outcome %d = %q", o, o.String())
		}
	}
	if Outcome(99).String() != "UNKNOWN" {
		t.Errorf("out-of-range outcome string")
	}
}

func TestCountsArithmetic(t *testing.T) {
	var c Counts
	c.Add(Success)
	c.Add(Success)
	c.Add(SegFault)
	c.Add(WrongAns)
	if c.Total() != 4 {
		t.Fatalf("total = %d", c.Total())
	}
	if got := c.ErrorRate(); got != 0.5 {
		t.Fatalf("error rate = %v", got)
	}
	if got := c.Fraction(Success); got != 0.5 {
		t.Fatalf("fraction = %v", got)
	}
	var d Counts
	d.Add(InfLoop)
	c.Merge(d)
	if c.Total() != 5 || c[InfLoop] != 1 {
		t.Fatalf("merge failed: %v", c)
	}
	var empty Counts
	if empty.ErrorRate() != 0 || empty.Fraction(Success) != 0 {
		t.Fatalf("empty counts should report zero rates")
	}
}

func TestRateLevelQuantisation(t *testing.T) {
	cases := []struct {
		rate   float64
		levels int
		want   int
	}{
		{0, 4, 0}, {0.24, 4, 0}, {0.25, 4, 1}, {0.5, 4, 2}, {0.75, 4, 3}, {1.0, 4, 3},
		{0.49, 2, 0}, {0.5, 2, 1}, {1, 2, 1},
		{-0.1, 4, 0}, {1.5, 4, 3}, // clamped
		{0.9, 1, 0}, // single level
	}
	for _, c := range cases {
		if got := RateLevel(c.rate, c.levels); got != c.want {
			t.Errorf("RateLevel(%v,%d) = %d, want %d", c.rate, c.levels, got, c.want)
		}
	}
}

func TestRateLevelBoundsProperty(t *testing.T) {
	f := func(rate float64, levels uint8) bool {
		l := int(levels%6) + 1
		got := RateLevel(math.Mod(math.Abs(rate), 2), l)
		return got >= 0 && got < l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevel3Bands(t *testing.T) {
	cases := []struct {
		rate float64
		want int
	}{{0, 0}, {0.14, 0}, {0.15, 1}, {0.5, 1}, {0.85, 1}, {0.86, 2}, {1, 2}}
	for _, c := range cases {
		if got := Level3(c.rate); got != c.want {
			t.Errorf("Level3(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

// TestSegFaultOutranksEveryFailure guards the premise on which the runtime
// ends a job at its first segfault (mpi.World.exit): nothing the other ranks
// could still do changes the verdict. For every mix of per-rank errors that
// holds a SegFault, with Deadlock and TimedOut each set or clear, FirstError
// is the first SegFault and the outcome is SEG_FAULT.
func TestSegFaultOutranksEveryFailure(t *testing.T) {
	const ranks = 3
	kinds := []func(rank int) error{
		func(int) error { return nil },
		func(r int) error { return mpi.SegFault{Op: fmt.Sprint("rank ", r)} },
		func(r int) error { return mpi.MPIError{Class: mpi.ErrCount, Rank: r} },
		func(r int) error { return mpi.AppError{Rank: r, Message: "detected"} },
		func(int) error { return mpi.Killed{Reason: "job abort: a rank segfaulted"} },
		func(r int) error { return mpi.NodeCrashed{Rank: r} },
	}
	golden := mkRun([]float64{1}, []float64{1}, []float64{1})
	digest := NewDigest(golden, 0)
	mixes := 0
	for mix := 0; mix < len(kinds)*len(kinds)*len(kinds); mix++ {
		res := mkRun([]float64{1}, []float64{1}, []float64{1})
		var seg error
		for r, m := 0, mix; r < ranks; r, m = r+1, m/len(kinds) {
			res.Ranks[r].Err = kinds[m%len(kinds)](r)
			if _, ok := res.Ranks[r].Err.(mpi.SegFault); ok && seg == nil {
				seg = res.Ranks[r].Err
			}
		}
		if seg == nil {
			continue
		}
		mixes++
		for flags := 0; flags < 4; flags++ {
			res.Deadlock, res.TimedOut = flags&1 != 0, flags&2 != 0
			if got := res.FirstError(); got != seg {
				t.Fatalf("errors %v deadlock %v timeout %v: FirstError = %v, want %v", res.Ranks, res.Deadlock, res.TimedOut, got, seg)
			}
			if got, dgot := Classify(golden, res), digest.Classify(res); got != SegFault || dgot != SegFault {
				t.Fatalf("errors %v deadlock %v timeout %v: classified %v (digest %v), want SEG_FAULT", res.Ranks, res.Deadlock, res.TimedOut, got, dgot)
			}
		}
	}
	if want := 6*6*6 - 5*5*5; mixes != want {
		t.Fatalf("checked %d mixes, want %d", mixes, want)
	}
}
