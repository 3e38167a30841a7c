package mpi

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// reduceBattery runs an Allreduce per datatype/op pair on comm, each rank's
// operands chosen so the result depends on the order the reduction applies
// them in (float rounding, NaN under MAX and MIN, complex products), and
// reports every result.
func reduceBattery(r *Rank, comm Comm) {
	me := r.CommRank(comm)
	x := float64(me + 1)
	nanOn := func(rank int) float64 { // NaN on one rank, x elsewhere
		if me == rank {
			return math.NaN()
		}
		return x
	}
	cases := []struct {
		dt   Datatype
		op   Op
		vals []float64
	}{
		{Float64, OpSum, []float64{x * 1e16, 1 / x, -x * 1e16, math.Pi * x}},
		{Float64, OpProd, []float64{1 + x/7, 1 - x/13}},
		{Float64, OpMax, []float64{nanOn(1), -x}},
		{Float64, OpMin, []float64{nanOn(2), x}},
		{Float32, OpSum, []float64{x / 3, 1e7 + x}},
		{Int64, OpProd, []float64{x, -x}},
		{Int32, OpBor, []float64{float64(int32(1) << (me % 31))}},
		{Int64, OpBand, []float64{-1 - x}},
		{Byte, OpLor, []float64{float64(me % 2)}},
		{Complex128, OpProd, []float64{1 + x/10, x / 5}},
	}
	for _, tc := range cases {
		n := len(tc.vals)
		esz := tc.dt.Size()
		if tc.dt == Complex128 {
			n = 1
		}
		send, recv := r.NewBuffer(n*esz), r.NewBuffer(n*esz)
		for i, v := range tc.vals {
			switch tc.dt {
			case Float64:
				send.SetFloat64(i, v)
			case Float32:
				storeFloat32(send.Bytes()[i*4:], float32(v))
			case Int64:
				send.SetInt64(i, int64(v))
			case Int32:
				send.SetInt32(i, int32(v))
			case Byte:
				send.Bytes()[i] = byte(v)
			case Complex128:
				storeFloat64(send.Bytes()[i*8:], v)
			}
		}
		r.Allreduce(send, recv, n, tc.dt, tc.op, comm)
		for _, b := range recv.Bytes() {
			r.ReportResult(float64(b))
		}
	}
}

// cleanApp is the all-clean case: Barriers and reduction batteries on the
// world, then on the halves of a split, every rank arriving with matching
// arguments.
func cleanApp(r *Rank) error {
	r.Barrier(CommWorld)
	reduceBattery(r, CommWorld)
	half := r.CommSplit(CommWorld, r.ID()*2/r.NumRanks(), r.ID())
	reduceBattery(r, half)
	r.Barrier(half)
	r.Barrier(CommWorld)
	return nil
}

// allreduceOf has every rank Allreduce count float64s of value id+1 over
// comm and report the result; dt and op may be swapped per rank by callers.
func allreduceOf(r *Rank, count int, dt Datatype, op Op, comm Comm) {
	send, recv := r.NewFloat64Buffer(8), r.NewFloat64Buffer(8)
	for i := 0; i < 8; i++ {
		send.SetFloat64(i, float64(r.ID()+1)+float64(i)/8)
	}
	r.Allreduce(send, recv, count, dt, op, comm)
	r.ReportResult(recv.Float64s()...)
}

// killReasons lists the reasons the run's killed ranks died with, by rank.
func killReasons(res RunResult) []string {
	var out []string
	for _, rr := range res.Ranks {
		if k, ok := rr.Err.(Killed); ok {
			out = append(out, fmt.Sprintf("%d:%s", rr.Rank, k.Reason))
		}
	}
	return out
}

// sameBits compares reported values bit for bit, so NaNs compare too.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Every way an instance can go — clean, or flipped by a mismatched count,
// datatype or op, another collective or a CommSplit at the same seq, a caller
// outside the communicator it names, a member already past it, a rank that
// never arrives, a segfault or a timeout while ranks wait, a sender blocked
// on a waiting rank's full inbox — and the bookings of a loop of calls that
// never meet, ends exactly as it does on messages alone: the
// DisablePooling reference, which has no rendezvous. Each case also pins how
// its instances ended, so a case that stopped meeting in memory fails too.
func TestRendezvousMatchesMessages(t *testing.T) {
	const n = 8
	// Instances that met, and rendezvous-call arrivals that ran on
	// messages; -1 is any number.
	type want struct{ clean, flipped int }
	cases := []struct {
		name    string
		ranks   int
		timeout time.Duration
		mailbox int
		app     func(r *Rank) error
		want    want
	}{
		// World: 2 Barriers + 10 Allreduces; each half: 10 Allreduces + 1
		// Barrier.
		{"clean/32", 32, 0, 0, cleanApp, want{2 + 10 + 2*11, 0}},
		{"clean/4", 4, 0, 0, cleanApp, want{2 + 10 + 2*11, 0}},
		// Six ranks: the Barriers meet; the world's Allreduces, and the
		// halves' of three ranks each, never try.
		{"clean/6", 6, 0, 0, cleanApp, want{2 + 2, 0}},
		{"mismatch/count", n, 0, 0, func(r *Rank) error {
			count := n
			if r.ID() == 2 {
				count = n - 1
			}
			allreduceOf(r, count, Float64, OpSum, CommWorld)
			return nil
		}, want{0, n}},
		{"mismatch/datatype", n, 0, 0, func(r *Rank) error {
			dt := Float64
			if r.ID() == 5 {
				dt = Int64
			}
			allreduceOf(r, n, dt, OpSum, CommWorld)
			return nil
		}, want{0, n}},
		{"mismatch/op", n, 0, 0, func(r *Rank) error {
			op := OpSum
			if r.ID() == 0 {
				op = OpMax
			}
			allreduceOf(r, n, Float64, op, CommWorld)
			return nil
		}, want{0, n}},
		{"bcast-at-same-seq", n, 0, 0, func(r *Rank) error {
			if r.ID() == 3 {
				buf := r.NewFloat64Buffer(n)
				r.Bcast(buf, n, Float64, 0, CommWorld)
				r.ReportResult(buf.Float64s()...)
				return nil
			}
			allreduceOf(r, n, Float64, OpSum, CommWorld)
			return nil
		}, want{0, n - 1}},
		{"commsplit-at-same-seq", n, 0, 0, func(r *Rank) error {
			if r.ID() == 3 {
				r.CommSplit(CommWorld, 0, 0)
				return nil
			}
			allreduceOf(r, n, Float64, OpSum, CommWorld)
			return nil
		}, want{0, n - 1}},
		{"caller-outside-comm", n, 0, 0, func(r *Rank) error {
			// Rank 0's handle is corrupted into the next communicator's,
			// the other half, where rankOf misses and it acts as that
			// half's rank 0. Its operands equal that rank's, so the half's
			// result does not depend on whose message arrives first.
			comm := r.CommSplit(CommWorld, r.ID()/(n/2), r.ID())
			if r.ID() == 0 {
				comm++
			}
			send, recv := r.NewFloat64Buffer(2), r.NewFloat64Buffer(2)
			send.SetFloat64(0, float64(r.ID()%(n/2)+1))
			send.SetFloat64(1, 0.1)
			r.Allreduce(send, recv, 2, Float64, OpSum, comm)
			r.ReportResult(recv.Float64s()...)
			return nil
		}, want{-1, -1}},
		{"never-arrives", n, 0, 0, func(r *Rank) error {
			if r.ID() == 6 {
				return nil
			}
			r.Barrier(CommWorld)
			return nil
		}, want{0, 0}},
		{"segfault-while-waiting", n, 0, 0, func(r *Rank) error {
			send := r.NewFloat64Buffer(n)
			if r.ID() == 1 {
				time.Sleep(5 * time.Millisecond) // let the others wait first
				send = nil                       // reading it faults
			}
			recv := r.NewFloat64Buffer(n)
			r.Allreduce(send, recv, n, Float64, OpSum, CommWorld)
			return nil
		}, want{0, 0}},
		{"timeout-while-waiting", n, 50 * time.Millisecond, 0, func(r *Rank) error {
			if r.ID() == 4 {
				time.Sleep(200 * time.Millisecond)
			}
			allreduceOf(r, n, Float64, OpSum, CommWorld)
			return nil
		}, want{0, 0}},
		{"full-inbox-while-waiting", 2, 0, 2, func(r *Rank) error {
			// Rank 1 sends three messages into rank 0's two-message inbox
			// before its Barrier; rank 0 reads them only after its own. The
			// third send waits until rank 0, waiting in the Barrier, makes
			// room, as a receive on messages would.
			if r.ID() == 1 {
				for i := 0; i < 3; i++ {
					r.Send(CommWorld, 0, i, []byte{byte(i + 1)})
				}
				r.Barrier(CommWorld)
				return nil
			}
			r.Barrier(CommWorld)
			for i := 0; i < 3; i++ {
				r.ReportResult(float64(r.Recv(CommWorld, 1, i)[0]))
			}
			return nil
		}, want{1, 0}},
		{"passed-before-open", n, 0, 0, func(r *Rank) error {
			// Rank 0 books past seq 0 through a Bcast it roots, which
			// returns at once, and only then messages each peer: the peers'
			// Allreduce at seq 0 finds a member already past it and opens no
			// record.
			buf := r.NewFloat64Buffer(n)
			if r.ID() == 0 {
				r.Bcast(buf, n, Float64, 0, CommWorld)
				for p := 1; p < n; p++ {
					r.Send(CommWorld, p, 0, []byte{1})
				}
				return nil
			}
			r.Recv(CommWorld, 0, 0)
			allreduceOf(r, n, Float64, OpSum, CommWorld)
			return nil
		}, want{0, n - 1}},
		{"bcast-loop-ahead", n, 0, 0, func(r *Rank) error {
			// The root's bookings of the Bcasts run ahead of its peers'; none
			// flips the Allreduce after them.
			buf := r.NewFloat64Buffer(1)
			for i := 0; i < 64; i++ {
				if r.ID() == 0 {
					buf.SetFloat64(0, float64(i))
				}
				r.Bcast(buf, 1, Float64, 0, CommWorld)
				r.ReportResult(buf.Float64(0))
			}
			allreduceOf(r, n, Float64, OpSum, CommWorld)
			return nil
		}, want{1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			timeout := tc.timeout
			if timeout == 0 {
				timeout = 30 * time.Second
			}
			opts := RunOptions{NumRanks: tc.ranks, Seed: 3, Timeout: timeout, MailboxCap: tc.mailbox}
			got := Run(opts, tc.app)
			opts.DisablePooling = true
			ref := Run(opts, tc.app)

			if ref.meetings != (meetCounts{}) {
				t.Fatalf("the reference run met in memory: %+v", ref.meetings)
			}
			if (tc.want.clean >= 0 && got.meetings.clean != tc.want.clean) || (tc.want.flipped >= 0 && got.meetings.flipped != tc.want.flipped) {
				t.Errorf("instances clean %d, flipped %d; want %+v", got.meetings.clean, got.meetings.flipped, tc.want)
			}
			if got.Deadlock != ref.Deadlock || got.TimedOut != ref.TimedOut || got.Cancelled != ref.Cancelled {
				t.Errorf("Deadlock/TimedOut/Cancelled %v/%v/%v, messages %v/%v/%v",
					got.Deadlock, got.TimedOut, got.Cancelled, ref.Deadlock, ref.TimedOut, ref.Cancelled)
			}
			if g, r := killReasons(got), killReasons(ref); !reflect.DeepEqual(g, r) {
				t.Errorf("kill reasons %q, messages %q", g, r)
			}
			for i := range ref.Ranks {
				g, r := got.Ranks[i], ref.Ranks[i]
				if !reflect.DeepEqual(g.Err, r.Err) || !sameBits(g.Values, r.Values) {
					t.Errorf("rank %d: %v %v, messages %v %v", i, g.Err, g.Values, r.Err, r.Values)
				}
			}
		})
	}
}
