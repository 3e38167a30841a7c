package fault

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/fastfit/fastfit/internal/mpi"
)

func fromBytes(b []byte) *mpi.Buffer {
	buf := mpi.NewBuffer(len(b))
	copy(buf.Bytes(), b)
	return buf
}

// randArgs builds a collective call with random parameter widths: buffers
// of 0..24 bytes (nil and empty included) and, for the v-variants, count
// vectors of 0..5 entries on either side.
func randArgs(rng *rand.Rand, ct mpi.CollType) *mpi.Args {
	buf := func() *mpi.Buffer {
		switch n := rng.Intn(26) - 1; {
		case n < 0:
			return nil
		default:
			b := make([]byte, n)
			rng.Read(b)
			return fromBytes(b)
		}
	}
	vec := func() []int32 {
		v := make([]int32, rng.Intn(6))
		for i := range v {
			v[i] = rng.Int31()
		}
		return v
	}
	a := &mpi.Args{
		Send: buf(), Recv: buf(),
		Count: rng.Int31(), Dtype: mpi.Float64, Op: mpi.OpSum, Root: rng.Int31n(8), Comm: mpi.CommWorld,
	}
	for _, t := range TargetsFor(ct) {
		if t == TargetCountsVec {
			a.SendCounts, a.RecvCounts = vec(), vec()
		}
	}
	return a
}

func cloneArgs(a *mpi.Args) *mpi.Args {
	c := *a
	c.Send, c.Recv = a.Send.Clone(), a.Recv.Clone()
	c.SendCounts = append([]int32(nil), a.SendCounts...)
	c.RecvCounts = append([]int32(nil), a.RecvCounts...)
	return &c
}

// TestApplyEqualsApplyOfEffectiveFault is the contract the per-point memo
// rests on: for every collective type, every target (the network ones
// included), random widths and raw bits on both sides of [0, width) —
// negative, huge, exact multiples — applying a fault and applying the fault
// with its bit replaced by EffectiveBit leave byte-identical arguments and
// agree on whether anything flipped. It also pins what "flipped" means:
// exactly one bit of exactly the addressed parameter when the target has a
// width, nothing at all when it has none.
func TestApplyEqualsApplyOfEffectiveFault(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rawBits := func(width int) []int {
		bits := []int{0, -1, 31, 32, -32, -33, BitSpace - 1, rng.Intn(BitSpace), -rng.Intn(BitSpace), 1<<31 - 1, -1 << 31}
		if width > 0 {
			bits = append(bits, width-1, width, width+1, -width, 3*width+5, -3*width-5)
		}
		return bits
	}
	for ct := mpi.CollType(0); ct < mpi.NumCollTypes; ct++ {
		for target := Target(0); target < NumTargets; target++ {
			for round := 0; round < 40; round++ {
				orig := cloneArgs(randArgs(rng, ct))
				w := WidthsOf(orig)
				for _, bit := range rawBits(w.Of(target)) {
					raw, eff := cloneArgs(orig), cloneArgs(orig)
					f := Fault{Target: target, Bit: bit}
					c := f
					c.Bit = w.EffectiveBit(target, bit)
					if width := w.Of(target); c.Bit < 0 || (width > 0 && c.Bit >= width) || (width == 0 && c.Bit != 0) {
						t.Fatalf("%v %v bit %d: effective bit %d outside [0,%d)", ct, target, bit, c.Bit, width)
					}
					okRaw := f.Apply(&mpi.CollectiveCall{Type: ct, Args: raw})
					okEff := c.Apply(&mpi.CollectiveCall{Type: ct, Args: eff})
					if okRaw != okEff || !reflect.DeepEqual(raw, eff) {
						t.Fatalf("%v %v bit %d (effective %d, width %d): Apply(raw)=%t %+v, Apply(effective)=%t %+v",
							ct, target, bit, c.Bit, w.Of(target), okRaw, raw, okEff, eff)
					}
					if okRaw != (w.Of(target) > 0) {
						t.Fatalf("%v %v bit %d: Apply reported %t on a target %d bits wide", ct, target, bit, okRaw, w.Of(target))
					}
					if unchanged := reflect.DeepEqual(raw, orig); unchanged == okRaw {
						t.Fatalf("%v %v bit %d: Apply reported %t but arguments unchanged=%t", ct, target, bit, okRaw, unchanged)
					}
				}
			}
		}
	}
}

// TestEffectiveFaultsAreDistinct pins the other half of the key: two
// different effective bits of one target never produce the same arguments,
// so the fault space of a call has exactly Space members and a campaign
// that has run that many distinct keys has enumerated it.
func TestEffectiveFaultsAreDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for ct := mpi.CollType(0); ct < mpi.NumCollTypes; ct++ {
		orig := cloneArgs(randArgs(rng, ct))
		w := WidthsOf(orig)
		var seen []*mpi.Args
		for _, target := range TargetsFor(ct) {
			for bit := 0; bit < w.Of(target); bit++ {
				a := cloneArgs(orig)
				Fault{Target: target, Bit: bit}.Apply(&mpi.CollectiveCall{Type: ct, Args: a})
				seen = append(seen, a)
			}
		}
		if len(seen) != w.Space(ct) {
			t.Fatalf("%v: enumerated %d faults, Space says %d", ct, len(seen), w.Space(ct))
		}
		for i := range seen {
			for j := i + 1; j < len(seen); j++ {
				if reflect.DeepEqual(seen[i], seen[j]) {
					t.Fatalf("%v: effective faults %d and %d of the space produce identical arguments", ct, i, j)
				}
			}
		}
	}
}

// TestZeroWidthTargetHasOneKey: an absent buffer (nil or empty), an empty
// count vector and every network target canonicalise every raw bit to the
// one key 0 — all of them miss identically.
func TestZeroWidthTargetHasOneKey(t *testing.T) {
	for _, a := range []*mpi.Args{{}, {Send: fromBytes(nil), Recv: fromBytes([]byte{})}} {
		w := WidthsOf(a)
		for _, target := range []Target{TargetSendBuf, TargetRecvBuf, TargetCountsVec, TargetNetLink, TargetNetDrop, TargetNetNode, NumTargets} {
			for _, bit := range []int{0, 1, -1, 7, 1 << 19, -1 << 40} {
				if got := w.EffectiveBit(target, bit); got != 0 {
					t.Errorf("%v bit %d on a zero-width target: effective bit %d, want 0", target, bit, got)
				}
			}
		}
	}
}

// TestNegativeBitDoesNotPanic is the regression test for the shift panic: a
// negative raw bit used to reach `1 << (Bit % 32)` on the rank goroutine and
// die with "negative shift amount" — a harness bug the classifier would
// have booked as an application crash.
func TestNegativeBitDoesNotPanic(t *testing.T) {
	for _, target := range []Target{TargetCount, TargetCountsVec, TargetDatatype, TargetOp, TargetRoot, TargetComm} {
		call := mkCall(mpi.CollAlltoallv)
		call.Args.RecvCounts = []int32{1, 2, 3}
		if !(Fault{Target: target, Bit: -7}).Apply(call) {
			t.Errorf("%v: a negative bit on a present parameter did not flip", target)
		}
	}
	for _, target := range []Target{TargetP2PData, TargetP2PTag, TargetP2PPeer} {
		call := &mpi.P2PCall{Kind: mpi.P2PSend, Args: &mpi.P2PArgs{Data: []byte{1, 2, 3}, Tag: 5, Peer: 1}}
		if !(Fault{Target: target, Bit: -7}).ApplyP2P(call) {
			t.Errorf("p2p %v: a negative bit on a present parameter did not flip", target)
		}
	}
}
