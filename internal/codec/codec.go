// Package codec is the binary codec under every state format of the
// repository — engine checkpoints, sketch and aggregate encodings, the server
// state file, WAL records and control frames, distributed state slices:
// append-style little-endian writers, and Dec, a reader over a byte slice.
//
// Dec enforces the decoder rules once, for every decoder on it:
//
//   - Count is the only way a decoder sizes an allocation (a make, a map hint)
//     or a loop from a count it read: the count is bounded by the bytes that
//     remain, so a forged count fails instead of allocating.
//   - The first failure sticks, with the offset it happened at, and ends the
//     input: every later read returns zero. A decoder reads a whole record and
//     checks once, at Done.
//   - Bytes aliases the input. A decoder copies what it keeps (a string
//     conversion does), so nothing it returns refers to its input.
//
// Length-prefixed fields come in two widths, u32 (control frames, the state
// file, the WAL's catalog records, state slices) and u64 (engine checkpoints, sketch and
// aggregate encodings). They are different formats: each field keeps its
// width.
package codec

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"

	"forwarddecay/internal/core"
)

// AppendU16 appends v, little-endian.
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// AppendU32 appends v, little-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v, little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendF64 appends v's IEEE-754 bits, little-endian.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes32 appends p behind a u32 length.
func AppendBytes32[T ~string | ~[]byte](b []byte, p T) []byte {
	return append(AppendU32(b, uint32(len(p))), p...)
}

// AppendBytes64 appends p behind a u64 length.
func AppendBytes64[T ~string | ~[]byte](b []byte, p T) []byte {
	return append(AppendU64(b, uint64(len(p))), p...)
}

// PutU64 writes v over b[:8], for a length known only after what it
// prefixes has been appended.
func PutU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// Seal appends the integrity hash of b: a u64 core.HashBytes trailer.
func Seal(b []byte) []byte { return AppendU64(b, core.HashBytes(b)) }

// Unseal strips the trailer Seal appended, reporting whether it matched: any
// flipped byte or truncation fails here, before a field is read.
func Unseal(b []byte) ([]byte, bool) {
	if len(b) < 8 {
		return nil, false
	}
	body := b[:len(b)-8]
	return body, core.HashBytes(body) == binary.LittleEndian.Uint64(b[len(body):])
}

// Error is a decode failure: the decoder's context, the offset of the read
// that failed and why.
type Error struct {
	Ctx string
	Off int
	Err error
}

func (e *Error) Error() string {
	if e.Ctx == "" {
		return fmt.Sprintf("offset %d: %v", e.Off, e.Err)
	}
	return fmt.Sprintf("%s: offset %d: %v", e.Ctx, e.Off, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Dec reads an encoding from a byte slice; its failures are *Error with the
// context it was opened with.
type Dec struct {
	b   []byte
	off int
	ctx string
	err error
	// A read that fell short records what it needed and had, and ends the
	// input; Err builds the error from them. Keeping the fixed-width reads
	// free of calls keeps them inlinable.
	need uint64
	have int
}

// NewDec opens a decoder over b. ctx prefixes its errors (e.g. "sketch").
func NewDec(b []byte, ctx string) Dec { return Dec{b: b, ctx: ctx} }

// Failf records a failure at the current offset, unless one is recorded
// already, and ends the input.
func (d *Dec) Failf(format string, args ...any) {
	if d.Err() == nil {
		d.err = &Error{Ctx: d.ctx, Off: d.off, Err: fmt.Errorf(format, args...)}
		d.b = d.b[:d.off]
	}
}

// short records a read of n bytes that fell short, unless a failure is
// recorded already.
func (d *Dec) short(n uint64) {
	if d.need == 0 && d.err == nil {
		d.need, d.have = n, len(d.b)-d.off
		d.b = d.b[:d.off]
	}
}

// U8 reads a byte.
func (d *Dec) U8() uint8 {
	if len(d.b)-d.off < 1 {
		d.short(1)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	if len(d.b)-d.off < 2 {
		d.short(2)
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	if len(d.b)-d.off < 4 {
		d.short(4)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	if len(d.b)-d.off < 8 {
		d.short(8)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// F64 reads the IEEE-754 bits of a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a byte that must be 0 or 1.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Failf("flag byte 0x%02x", v)
	}
	return v == 1
}

// Tag reads a byte that must be want.
func (d *Dec) Tag(want byte) {
	if got := d.U8(); got != want {
		d.Failf("wrong encoding tag 0x%02x, want 0x%02x", got, want)
	}
}

// Bytes reads n bytes. The result aliases the input: copy what outlives it.
func (d *Dec) Bytes(n uint64) []byte {
	if uint64(len(d.b)-d.off) < n {
		d.short(n)
		return nil
	}
	end := d.off + int(n)
	p := d.b[d.off:end:end]
	d.off = end
	return p
}

// Bytes32 reads a u32 length and that many bytes (see Bytes).
func (d *Dec) Bytes32() []byte { return d.Bytes(uint64(d.U32())) }

// Bytes64 reads a u64 length and that many bytes (see Bytes).
func (d *Dec) Bytes64() []byte { return d.Bytes(d.U64()) }

// Rest reads every remaining byte (see Bytes).
func (d *Dec) Rest() []byte { return d.Bytes(uint64(len(d.b) - d.off)) }

// Count returns n, a count of elements the decoder is about to read, once
// the remaining input could hold n of them at minBytes each (at least 1); a
// larger n fails and returns 0. It is the only way a decoder sizes an
// allocation or a loop from a count it read.
func (d *Dec) Count(n uint64, minBytes int) int {
	if n > uint64(len(d.b)-d.off)/uint64(max(minBytes, 1)) {
		d.Failf("count %d exceeds the %d bytes remaining", n, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

// Unmarshal decodes p, bytes read from d, into u; u's failure becomes d's.
// It does nothing once d has failed.
func (d *Dec) Unmarshal(u encoding.BinaryUnmarshaler, p []byte) {
	if d.Err() == nil {
		if err := u.UnmarshalBinary(p); err != nil {
			d.Failf("%w", err)
		}
	}
}

// Err returns the first failure, or nil.
func (d *Dec) Err() error {
	if d.err == nil && d.need != 0 {
		d.err = &Error{Ctx: d.ctx, Off: d.off, Err: fmt.Errorf("truncated: need %d bytes, have %d", d.need, d.have)}
	}
	return d.err
}

// Done returns the first failure, or a failure if any input is left unread.
func (d *Dec) Done() error {
	if d.Err() == nil && d.off != len(d.b) {
		d.Failf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}
