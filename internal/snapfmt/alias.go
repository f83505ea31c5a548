package snapfmt

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittle reports whether this host is little-endian — the format's byte
// order, and the precondition for zero-copy aliasing. Big-endian hosts fall
// back to copying decodes and element-wise encodes.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aligned8 reports whether b's base address is 8-byte aligned (the
// strictest element alignment in the format). mmap'd buffers always are;
// arbitrary test buffers occasionally are not, in which case decode copies.
func aligned8(b []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0
}

// ---- encode views: []T → []byte ------------------------------------------
//
// On little-endian hosts these return a zero-copy view of the slice memory;
// otherwise they serialize element-wise. Callers must not mutate the result.

func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
	}
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

func u64Bytes(v []uint64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
	}
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], x)
	}
	return out
}

func u32Bytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*4)
	}
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], x)
	}
	return out
}

func i32Bytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*4)
	}
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(x))
	}
	return out
}

// ---- decode views: []byte → []T ------------------------------------------
//
// Length validity (len(b) % elemSize == 0) is the caller's responsibility.
// On little-endian hosts with aligned input these alias b; otherwise they
// decode into fresh slices.

func bytesF64(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittle && aligned8(b) {
		return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func bytesU64(b []byte) []uint64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittle && aligned8(b) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func bytesU32(b []byte) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittle && aligned8(b) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func bytesI32(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittle && aligned8(b) {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}
