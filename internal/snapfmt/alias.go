package snapfmt

import (
	"bytes"
	"encoding/binary"
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

// elem is the element type of a typed section.
type elem interface {
	float64 | uint64 | uint32 | int32
}

// asBytes views v as the format's little-endian bytes: zero-copy on a
// little-endian host, serialized element-wise otherwise. Callers must not
// mutate the result.
func asBytes[T elem](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	n := len(v) * int(unsafe.Sizeof(v[0]))
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), n)
	}
	buf := bytes.NewBuffer(make([]byte, 0, n))
	_ = binary.Write(buf, binary.LittleEndian, v) // a fixed-size slice into a buffer cannot fail
	return buf.Bytes()
}

// fromBytes is asBytes' inverse: on a little-endian host with aligned input
// it aliases b, otherwise it decodes into a fresh slice. Length validity
// (len(b) a multiple of the element size) is the caller's responsibility.
func fromBytes[T elem](b []byte) []T {
	var zero T
	n := len(b) / int(unsafe.Sizeof(zero))
	if n == 0 {
		return nil
	}
	if hostLittle && aligned8(b) {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]T, n)
	_ = binary.Read(bytes.NewReader(b), binary.LittleEndian, out) // b holds all n elements
	return out
}
