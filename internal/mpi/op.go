package mpi

// Op is a handle naming a reduction operator, analogous to MPI_Op. Handles
// use the same MPICH-style kind encoding as Datatype (see datatype.go):
// index-bit corruptions are validated away as MPI_ERR_OP, kind-bit
// corruptions are dereferenced like pointers and crash.
type Op int32

// opKindTag marks built-in op handles (upper 16 bits).
const opKindTag = 0x4B

const opKind Op = opKindTag << 16

const (
	OpNull Op = opKind | 0
	OpSum  Op = opKind | 1
	OpProd Op = opKind | 2
	OpMax  Op = opKind | 3
	OpMin  Op = opKind | 4
	OpLand Op = opKind | 5 // logical and (nonzero = true)
	OpLor  Op = opKind | 6 // logical or
	OpBand Op = opKind | 7 // bitwise and
	OpBor  Op = opKind | 8 // bitwise or
	numOps    = 9
)

var opNames = [numOps]string{
	"MPI_OP_NULL", "MPI_SUM", "MPI_PROD", "MPI_MAX", "MPI_MIN",
	"MPI_LAND", "MPI_LOR", "MPI_BAND", "MPI_BOR",
}

func (o Op) kindOK() bool { return uint32(o)>>16 == opKindTag }

func (o Op) index() int { return int(uint32(o) & 0xFFFF) }

// Valid reports whether o names a usable (registered, non-null) operator.
func (o Op) Valid() bool { return o.kindOK() && o.index() > 0 && o.index() < numOps }

func (o Op) String() string {
	if o.kindOK() && o.index() < numOps {
		return opNames[o.index()]
	}
	return "MPI_OP_INVALID"
}

// checkOp mirrors checkDtype for reduction operators.
func checkOp(rank int, opName string, o Op) {
	if !o.kindOK() {
		panic(SegFault{Op: opName + ": dereference of corrupted op handle", Offset: int(o), Length: 1})
	}
	if o == OpNull {
		abortf(rank, opName, ErrOp, "null op handle")
	}
	if o.index() >= numOps {
		abortf(rank, opName, ErrOp, "invalid op handle index %d", o.index())
	}
}

// combine applies op element-wise: acc[i] = op(acc[i], in[i]) for count
// elements of datatype dt. Both slices are raw little-endian bytes; the
// caller has validated the handles and bounds-checked the slices.
func combine(op Op, dt Datatype, acc, in []byte, count int) {
	size := dt.Size()
	for i := 0; i < count; i++ {
		a := acc[i*size : (i+1)*size]
		b := in[i*size : (i+1)*size]
		combineElem(op, dt, a, b)
	}
}

// combinePair is one exchange of recursive doubling done in place:
// a[i], b[i] = op(a[i], b[i]), op(b[i], a[i]) for count elements of dt, each
// side combining its own value with the other's old one, in that order.
func combinePair(op Op, dt Datatype, a, b []byte, count int) {
	size := dt.Size()
	var old [16]byte // the widest datatype, Complex128
	for i := 0; i < count; i++ {
		ea, eb := a[i*size:(i+1)*size], b[i*size:(i+1)*size]
		copy(old[:], ea)
		combineElem(op, dt, ea, eb)
		combineElem(op, dt, eb, old[:size])
	}
}

func combineElem(op Op, dt Datatype, a, b []byte) {
	switch dt {
	case Float64:
		storeFloat64(a, combineF64(op, loadFloat64(a), loadFloat64(b)))
	case Float32:
		storeFloat32(a, combineF32(op, loadFloat32(a), loadFloat32(b)))
	case Int64:
		storeInt64(a, combineI64(op, loadInt64(a), loadInt64(b)))
	case Int32:
		storeInt32(a, combineI32(op, loadInt32(a), loadInt32(b)))
	case Byte:
		a[0] = byte(combineI64(op, int64(a[0]), int64(b[0])))
	case Complex128:
		// Component-wise; only SUM and PROD are meaningful, matching MPI.
		re1, im1 := loadFloat64(a[:8]), loadFloat64(a[8:])
		re2, im2 := loadFloat64(b[:8]), loadFloat64(b[8:])
		switch op {
		case OpProd:
			storeFloat64(a[:8], re1*re2-im1*im2)
			storeFloat64(a[8:], re1*im2+im1*re2)
		default: // SUM and everything else degrade to component-wise sum
			storeFloat64(a[:8], re1+re2)
			storeFloat64(a[8:], im1+im2)
		}
	}
}

func combineF64(op Op, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpLand:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case OpLor:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	case OpBand, OpBor:
		// Bitwise ops on floats are undefined in MPI; real implementations
		// operate on the raw representation, which we mirror.
		ai, bi := int64(a), int64(b)
		if op == OpBand {
			return float64(ai & bi)
		}
		return float64(ai | bi)
	}
	return a
}

func combineF32(op Op, a, b float32) float32 {
	return float32(combineF64(op, float64(a), float64(b)))
}

func combineI64(op Op, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpLand:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case OpLor:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	case OpBand:
		return a & b
	case OpBor:
		return a | b
	}
	return a
}

func combineI32(op Op, a, b int32) int32 {
	return int32(combineI64(op, int64(a), int64(b)))
}
