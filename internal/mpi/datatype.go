package mpi

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Datatype is a handle naming an element type, analogous to MPI_Datatype.
//
// Handles follow the MPICH encoding Titan's Cray MPT uses: an integer with
// a kind tag in the upper bits and a table index in the lower bits. That
// encoding shapes the fault behaviour exactly as observed on real systems:
//
//   - a bit flip in the index bits usually produces an unregistered handle
//     the library's validation catches (MPI_ERR_TYPE), or occasionally
//     another predefined type (silent element-size confusion);
//   - a bit flip in the kind bits makes the value look like a pointer to a
//     derived-type object, which the library dereferences — and crashes.
type Datatype int32

// dtypeKindTag marks built-in datatype handles (upper 16 bits).
const dtypeKindTag = 0x5A

const dtypeKind Datatype = dtypeKindTag << 16

const (
	DatatypeNull Datatype = dtypeKind | 0
	Byte         Datatype = dtypeKind | 1
	Int32        Datatype = dtypeKind | 2
	Int64        Datatype = dtypeKind | 3
	Float32      Datatype = dtypeKind | 4
	Float64      Datatype = dtypeKind | 5
	Complex128   Datatype = dtypeKind | 6
	numDatatypes          = 7
)

var datatypeSizes = [numDatatypes]int{0, 1, 4, 8, 4, 8, 16}

var datatypeNames = [numDatatypes]string{
	"MPI_DATATYPE_NULL", "MPI_BYTE", "MPI_INT", "MPI_LONG",
	"MPI_FLOAT", "MPI_DOUBLE", "MPI_DOUBLE_COMPLEX",
}

// kindOK reports whether the handle carries the built-in kind tag. A
// handle without it is treated as a pointer by the library.
func (d Datatype) kindOK() bool { return uint32(d)>>16 == dtypeKindTag }

func (d Datatype) index() int { return int(uint32(d) & 0xFFFF) }

// Valid reports whether d names a usable (registered, non-null) datatype.
func (d Datatype) Valid() bool {
	return d.kindOK() && d.index() > 0 && d.index() < numDatatypes
}

// Size returns the element size in bytes of a validated handle.
func (d Datatype) Size() int { return datatypeSizes[d.index()] }

func (d Datatype) String() string {
	if d.kindOK() && d.index() < numDatatypes {
		return datatypeNames[d.index()]
	}
	return "MPI_DATATYPE_INVALID"
}

// checkDtype applies the library's handle handling: kind-broken handles
// are dereferenced like pointers (simulated SIGSEGV); registered-space
// handles are validated (MPI_ERR_TYPE for null or unregistered indices).
func checkDtype(rank int, op string, d Datatype) {
	if !d.kindOK() {
		panic(SegFault{Op: op + ": dereference of corrupted datatype handle", Offset: int(d), Length: 1})
	}
	if d == DatatypeNull {
		abortf(rank, op, ErrType, "null datatype handle")
	}
	if d.index() >= numDatatypes {
		abortf(rank, op, ErrType, "invalid datatype handle index %d", d.index())
	}
}

// The element codecs below interpret raw buffer bytes as typed values.
// Reductions use them, so a corrupted datatype handle makes the reduction
// reinterpret memory exactly the way a real MPI implementation would.

func loadFloat64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
func storeFloat64(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

// hostLittleEndian reports that a float64 in this process's memory already
// is its wire encoding, in which case a []float64 moves to and from payload
// bytes as one memmove rather than an element loop — a fifth of the time on
// a 32 KB halo plane that is not in cache. The bytes are the same either way.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// putFloat64s encodes vals into the first len(vals)*8 bytes of dst.
func putFloat64s(dst []byte, vals []float64) {
	dst = dst[:len(vals)*8]
	if hostLittleEndian {
		copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(dst)))
		return
	}
	for i, v := range vals {
		storeFloat64(dst[i*8:], v)
	}
}

// getFloat64s decodes the first len(dst)*8 bytes of raw into dst.
func getFloat64s(dst []float64, raw []byte) {
	raw = raw[:len(dst)*8]
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), len(raw)), raw)
		return
	}
	for i := range dst {
		dst[i] = loadFloat64(raw[i*8:])
	}
}

func loadFloat32(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }
func storeFloat32(b []byte, v float32) {
	binary.LittleEndian.PutUint32(b, math.Float32bits(v))
}

func loadInt64(b []byte) int64     { return int64(binary.LittleEndian.Uint64(b)) }
func storeInt64(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) }
func loadInt32(b []byte) int32     { return int32(binary.LittleEndian.Uint32(b)) }
func storeInt32(b []byte, v int32) { binary.LittleEndian.PutUint32(b, uint32(v)) }
