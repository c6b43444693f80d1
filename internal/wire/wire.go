// Package wire holds the little-endian append/read primitives shared by the
// on-disk codecs (core's checkpoint, the stats snapshot, the interp plan
// and plancache container), and their atomic file write. Encoders append to
// a caller-owned []byte; decoders go
// through Reader, which carries a sticky error so callers can chain reads and
// check once. All multi-byte values are little-endian; signed 32-bit values
// round-trip through a uint32 cast so negatives (interned symbols, -1
// sentinels) survive.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
)

// ErrTruncated is the sticky error Reader reports when the buffer runs out or
// a length prefix exceeds the remaining bytes. Corrupt cache files surface as
// exactly this (or a codec's own validation error) and are treated as misses.
var ErrTruncated = errors.New("wire: truncated or corrupt buffer")

func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func AppendI32(b []byte, v int32) []byte { return AppendU32(b, uint32(v)) }

// AppendInt encodes a Go int that is known to fit int32 (column indexes,
// counts, -1 sentinels).
func AppendInt(b []byte, v int) []byte { return AppendU32(b, uint32(int32(v))) }

func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendBytes writes a u32 length prefix followed by the bytes.
func AppendBytes(b []byte, p []byte) []byte {
	b = AppendU32(b, uint32(len(p)))
	return append(b, p...)
}

func AppendString(b []byte, s string) []byte {
	b = AppendU32(b, uint32(len(s)))
	return append(b, s...)
}

// Reader decodes a buffer written with the Append helpers. After the first
// failed read every subsequent read returns the zero value and Err() reports
// ErrTruncated; decoders check Err() once at the end.
type Reader struct {
	b   []byte
	err error
}

func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
	r.b = nil
}

func (r *Reader) Err() error { return r.err }

// Len reports the remaining undecoded bytes.
func (r *Reader) Len() int { return len(r.b) }

// Rest returns the remaining bytes without consuming them.
func (r *Reader) Rest() []byte { return r.b }

// Skip advances past n bytes.
func (r *Reader) Skip(n int) {
	if n < 0 || n > len(r.b) {
		r.fail()
		return
	}
	r.b = r.b[n:]
}

func (r *Reader) U8() uint8 {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *Reader) I32() int32 { return int32(r.U32()) }

func (r *Reader) Int() int { return int(int32(r.U32())) }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a u32 length prefix and returns that many bytes (aliasing the
// underlying buffer; callers copy if they retain).
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	if r.err != nil || n < 0 || n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads a u32 element count and validates it against the remaining
// buffer assuming each element occupies at least elemSize bytes, so garbage
// length prefixes cannot force huge allocations. Returns -1 on failure.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil || n < 0 || elemSize < 1 || n > len(r.b)/elemSize {
		r.fail()
		return -1
	}
	return n
}

// WriteFileAtomic writes b to dir/name through a ".tmp-*" file in dir and a
// rename: readers and racing writers see a complete old or new file, and a
// crash in between leaves the old one. Nothing is synced.
func WriteFileAtomic(dir, name string, b []byte) error {
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
