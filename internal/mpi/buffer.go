package mpi

// Buffer is a bounds-tracked region of simulated application memory.
//
// All collective and point-to-point operations address buffers in raw bytes,
// the way a C MPI library addresses `void *` arguments. Any access outside
// the region panics with a SegFault value, modelling the MMU fault a real
// process takes when a corrupted count or element size walks past the end of
// an allocation.
type Buffer struct {
	mem  []byte
	slab *slab // arena backing when rank-allocated with pooling on (pool.go)
	// temp marks a runtime temporary the application never reads: a
	// convenience wrapper's send buffer, released before the wrapper
	// returns. A flip left in one cannot outlive the call, so the
	// reconvergence cut does not compare it (fork.go, part 3).
	temp bool
}

// NewBuffer allocates a zeroed buffer of n bytes.
func NewBuffer(n int) *Buffer {
	if n < 0 {
		n = 0
	}
	return &Buffer{mem: make([]byte, n)}
}

// Release returns an arena-backed buffer's storage to the pool. The buffer
// must not be used afterwards (any access faults, as a freed allocation
// would). It is idempotent and a no-op for unpooled buffers, so cleanup
// paths can call it unconditionally; buffers never released explicitly are
// swept back when their run ends.
func (b *Buffer) Release() {
	if b == nil || b.slab == nil {
		return
	}
	putSlab(b.slab)
	b.slab = nil
	b.mem = nil
}

// Len returns the buffer length in bytes.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.mem)
}

// access returns the byte range [off, off+n) and panics with SegFault if the
// range escapes the region. op names the operation for the fault report.
func (b *Buffer) access(op string, off, n int) []byte {
	if b == nil {
		panic(SegFault{Op: op, Offset: off, Length: n, Bound: 0})
	}
	if off < 0 || n < 0 || off+n > len(b.mem) || off+n < 0 {
		panic(SegFault{Op: op, Offset: off, Length: n, Bound: len(b.mem)})
	}
	return b.mem[off : off+n]
}

// Heap-slack model. A user buffer on a real machine sits inside a heap
// arena: accesses that run modestly past the allocation usually land in
// mapped memory. Overreads within ReadSlack therefore return garbage
// (zeros) instead of faulting, and overwrites within WriteSlack are stray
// writes that vanish into unrelated heap memory; only accesses beyond the
// slack hit an unmapped page and fault. This is what makes a corrupted
// count surface as an oversized message (MPI_ERR_TRUNCATE at the receiver)
// when the corruption is moderate, and as SIGSEGV only when it is wild —
// the mix the paper observes.
const (
	// ReadSlack is the mapped region assumed past a buffer for reads.
	ReadSlack = 1 << 18
	// WriteSlack is the mapped region assumed past a buffer for writes.
	WriteSlack = 1 << 18
)

// ReadAt returns n bytes at off for transmission. Reads that overrun the
// buffer but stay within ReadSlack return the valid prefix padded with
// zeros (heap garbage); reads beyond the slack fault.
func (b *Buffer) ReadAt(op string, off, n int) []byte {
	if b == nil {
		if n == 0 {
			return nil
		}
		panic(SegFault{Op: op, Offset: off, Length: n, Bound: 0})
	}
	if off < 0 || n < 0 || off+n < 0 {
		panic(SegFault{Op: op, Offset: off, Length: n, Bound: len(b.mem)})
	}
	if off+n <= len(b.mem) {
		return b.mem[off : off+n]
	}
	if off+n <= len(b.mem)+ReadSlack {
		out := make([]byte, n)
		if off < len(b.mem) {
			copy(out, b.mem[off:])
		}
		return out
	}
	panic(SegFault{Op: op, Offset: off, Length: n, Bound: len(b.mem)})
}

// WriteAt stores data at off. The portion landing inside the buffer is
// written; overhang within WriteSlack is a stray write into unrelated heap
// memory and is dropped; overhang beyond the slack faults.
func (b *Buffer) WriteAt(op string, off int, data []byte) {
	n := len(data)
	bound := 0
	if b != nil {
		bound = len(b.mem)
	}
	if off < 0 || off+n < 0 {
		panic(SegFault{Op: op, Offset: off, Length: n, Bound: bound})
	}
	if off+n > bound+WriteSlack {
		panic(SegFault{Op: op, Offset: off, Length: n, Bound: bound})
	}
	if b == nil || off >= bound {
		return // entirely a stray write
	}
	copy(b.mem[off:], data)
}

// Bytes returns the whole region without a bounds check; it is the caller's
// own memory, so unrestricted access is safe by construction.
func (b *Buffer) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.mem
}

// FlipBit flips bit i (0 = least-significant bit of byte 0). Out-of-range
// bit indices wrap, so a fault injector can pick bits uniformly.
func (b *Buffer) FlipBit(i int) {
	if b == nil || len(b.mem) == 0 {
		return
	}
	n := len(b.mem) * 8
	i = ((i % n) + n) % n
	b.mem[i/8] ^= 1 << (i % 8)
}

// Clone returns a deep copy of the buffer.
func (b *Buffer) Clone() *Buffer {
	if b == nil {
		return nil
	}
	c := &Buffer{mem: make([]byte, len(b.mem))}
	copy(c.mem, b.mem)
	return c
}

// Typed constructors and views. The views copy in/out through explicit
// encodings so the raw-byte fault semantics stay authoritative.

// NewFloat64Buffer allocates a buffer holding n float64 elements.
func NewFloat64Buffer(n int) *Buffer { return NewBuffer(n * 8) }

// NewInt64Buffer allocates a buffer holding n int64 elements.
func NewInt64Buffer(n int) *Buffer { return NewBuffer(n * 8) }

// NewInt32Buffer allocates a buffer holding n int32 elements.
func NewInt32Buffer(n int) *Buffer { return NewBuffer(n * 4) }

// NewComplex128Buffer allocates a buffer holding n complex128 elements.
func NewComplex128Buffer(n int) *Buffer { return NewBuffer(n * 16) }

// FromFloat64s builds a buffer containing the given values.
func FromFloat64s(vs []float64) *Buffer {
	b := NewFloat64Buffer(len(vs))
	putFloat64s(b.mem, vs)
	return b
}

// FromInt64s builds a buffer containing the given values.
func FromInt64s(vs []int64) *Buffer {
	b := NewInt64Buffer(len(vs))
	for i, v := range vs {
		storeInt64(b.mem[i*8:], v)
	}
	return b
}

// FromInt32s builds a buffer containing the given values.
func FromInt32s(vs []int32) *Buffer {
	b := NewInt32Buffer(len(vs))
	for i, v := range vs {
		storeInt32(b.mem[i*4:], v)
	}
	return b
}

// FromComplex128s builds a buffer containing the given values.
func FromComplex128s(vs []complex128) *Buffer {
	b := NewComplex128Buffer(len(vs))
	for i, v := range vs {
		storeFloat64(b.mem[i*16:], real(v))
		storeFloat64(b.mem[i*16+8:], imag(v))
	}
	return b
}

// Rank-bound constructors. These are the arena-aware counterparts of the
// free constructors above: inside a simulated run they draw backing
// storage from the buffer pool (tracked per rank, swept back when the run
// ends, or earlier via Release), falling back to plain allocations when
// pooling is disabled. Applications should prefer these inside rank
// functions; the free constructors remain for code holding no *Rank.

// NewBuffer allocates a zeroed n-byte buffer from the run's arena.
func (r *Rank) NewBuffer(n int) *Buffer { return r.allocBuffer(n, true) }

// NewFloat64Buffer allocates an arena buffer of n float64 elements.
func (r *Rank) NewFloat64Buffer(n int) *Buffer { return r.allocBuffer(n*8, true) }

// NewInt64Buffer allocates an arena buffer of n int64 elements.
func (r *Rank) NewInt64Buffer(n int) *Buffer { return r.allocBuffer(n*8, true) }

// NewInt32Buffer allocates an arena buffer of n int32 elements.
func (r *Rank) NewInt32Buffer(n int) *Buffer { return r.allocBuffer(n*4, true) }

// NewComplex128Buffer allocates an arena buffer of n complex128 elements.
func (r *Rank) NewComplex128Buffer(n int) *Buffer { return r.allocBuffer(n*16, true) }

// FromFloat64s builds an arena buffer containing the given values.
func (r *Rank) FromFloat64s(vs []float64) *Buffer {
	b := r.allocBuffer(len(vs)*8, false)
	putFloat64s(b.mem, vs)
	return b
}

// FromInt64s builds an arena buffer containing the given values.
func (r *Rank) FromInt64s(vs []int64) *Buffer {
	b := r.allocBuffer(len(vs)*8, false)
	for i, v := range vs {
		storeInt64(b.mem[i*8:], v)
	}
	return b
}

// FromInt32s builds an arena buffer containing the given values.
func (r *Rank) FromInt32s(vs []int32) *Buffer {
	b := r.allocBuffer(len(vs)*4, false)
	for i, v := range vs {
		storeInt32(b.mem[i*4:], v)
	}
	return b
}

// FromComplex128s builds an arena buffer containing the given values.
func (r *Rank) FromComplex128s(vs []complex128) *Buffer {
	b := r.allocBuffer(len(vs)*16, false)
	for i, v := range vs {
		storeFloat64(b.mem[i*16:], real(v))
		storeFloat64(b.mem[i*16+8:], imag(v))
	}
	return b
}

// Float64 returns element i interpreted as a float64.
func (b *Buffer) Float64(i int) float64 { return loadFloat64(b.access("load float64", i*8, 8)) }

// SetFloat64 stores v as element i.
func (b *Buffer) SetFloat64(i int, v float64) { storeFloat64(b.access("store float64", i*8, 8), v) }

// Int64 returns element i interpreted as an int64.
func (b *Buffer) Int64(i int) int64 { return loadInt64(b.access("load int64", i*8, 8)) }

// SetInt64 stores v as element i.
func (b *Buffer) SetInt64(i int, v int64) { storeInt64(b.access("store int64", i*8, 8), v) }

// Int32 returns element i interpreted as an int32.
func (b *Buffer) Int32(i int) int32 { return loadInt32(b.access("load int32", i*4, 4)) }

// SetInt32 stores v as element i.
func (b *Buffer) SetInt32(i int, v int32) { storeInt32(b.access("store int32", i*4, 4), v) }

// Complex128 returns element i interpreted as a complex128.
func (b *Buffer) Complex128(i int) complex128 {
	raw := b.access("load complex128", i*16, 16)
	return complex(loadFloat64(raw[:8]), loadFloat64(raw[8:]))
}

// SetComplex128 stores v as element i.
func (b *Buffer) SetComplex128(i int, v complex128) {
	raw := b.access("store complex128", i*16, 16)
	storeFloat64(raw[:8], real(v))
	storeFloat64(raw[8:], imag(v))
}

// Float64s copies the whole buffer out as float64 values.
func (b *Buffer) Float64s() []float64 {
	return float64sFrom(b.Bytes())
}

// Int64s copies the whole buffer out as int64 values.
func (b *Buffer) Int64s() []int64 {
	n := b.Len() / 8
	out := make([]int64, n)
	for i := range out {
		out[i] = loadInt64(b.mem[i*8:])
	}
	return out
}

// Int32s copies the whole buffer out as int32 values.
func (b *Buffer) Int32s() []int32 {
	n := b.Len() / 4
	out := make([]int32, n)
	for i := range out {
		out[i] = loadInt32(b.mem[i*4:])
	}
	return out
}

// Complex128s copies the whole buffer out as complex128 values.
func (b *Buffer) Complex128s() []complex128 {
	n := b.Len() / 16
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(loadFloat64(b.mem[i*16:]), loadFloat64(b.mem[i*16+8:]))
	}
	return out
}

// CopyFloat64s overwrites the buffer prefix with the given values.
func (b *Buffer) CopyFloat64s(vs []float64) {
	putFloat64s(b.access("store float64 slice", 0, len(vs)*8), vs)
}

// CopyInt64s overwrites the buffer prefix with the given values.
func (b *Buffer) CopyInt64s(vs []int64) {
	raw := b.access("store int64 slice", 0, len(vs)*8)
	for i, v := range vs {
		storeInt64(raw[i*8:], v)
	}
}

// CopyComplex128s overwrites the buffer prefix with the given values.
func (b *Buffer) CopyComplex128s(vs []complex128) {
	raw := b.access("store complex128 slice", 0, len(vs)*16)
	for i, v := range vs {
		storeFloat64(raw[i*16:], real(v))
		storeFloat64(raw[i*16+8:], imag(v))
	}
}
