package objectstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
)

// Pickler serializes object state. TDB provides pickling for basic types
// (paper §4.1); applications compose these into their Pickle methods, or
// fall back to GobPickle for convenience. The format is architecture
// independent (big-endian, length-prefixed), so a database can move between
// platforms.
type Pickler struct {
	buf []byte
}

// NewPickler returns an empty pickler.
func NewPickler() *Pickler { return &Pickler{} }

// Bytes returns the accumulated encoding.
func (p *Pickler) Bytes() []byte { return p.buf }

// Len returns the current encoded size.
func (p *Pickler) Len() int { return len(p.buf) }

// Uint32 appends a fixed 32-bit unsigned integer.
func (p *Pickler) Uint32(v uint32) { p.buf = binary.BigEndian.AppendUint32(p.buf, v) }

// Uint64 appends a fixed 64-bit unsigned integer.
func (p *Pickler) Uint64(v uint64) { p.buf = binary.BigEndian.AppendUint64(p.buf, v) }

// Int32 appends a 32-bit signed integer.
func (p *Pickler) Int32(v int32) { p.Uint32(uint32(v)) }

// Int64 appends a 64-bit signed integer.
func (p *Pickler) Int64(v int64) { p.Uint64(uint64(v)) }

// Int appends an int as 64 bits.
func (p *Pickler) Int(v int) { p.Int64(int64(v)) }

// Bool appends a boolean.
func (p *Pickler) Bool(v bool) {
	if v {
		p.buf = append(p.buf, 1)
	} else {
		p.buf = append(p.buf, 0)
	}
}

// Byte appends a single byte.
func (p *Pickler) Byte(v byte) { p.buf = append(p.buf, v) }

// Float64 appends a float64.
func (p *Pickler) Float64(v float64) { p.Uint64(math.Float64bits(v)) }

// Bytes32 appends a length-prefixed byte slice.
func (p *Pickler) BytesVal(v []byte) {
	p.Uint32(uint32(len(v)))
	p.buf = append(p.buf, v...)
}

// String appends a length-prefixed string.
func (p *Pickler) String(v string) {
	p.Uint32(uint32(len(v)))
	p.buf = append(p.buf, v...)
}

// ObjectID appends a persistent object reference. Objects reference each
// other by id, never by pointer (no swizzling, paper §4.1).
func (p *Pickler) ObjectID(v ObjectID) { p.Uint64(uint64(v)) }

// ObjectIDs appends a slice of object references.
func (p *Pickler) ObjectIDs(v []ObjectID) {
	p.Uint32(uint32(len(v)))
	for _, id := range v {
		p.Uint64(uint64(id))
	}
}

// RawBytes appends bytes without a length prefix (caller must know the
// length at unpickle time).
func (p *Pickler) RawBytes(v []byte) { p.buf = append(p.buf, v...) }

// Unpickler decodes object state written by a Pickler. Errors are sticky:
// after the first decoding error every accessor returns zero values and Err
// reports the failure, so Unpickle methods can decode unconditionally and
// check once. Every accessor copies what it returns, so an object may keep
// anything it decodes but must not keep the Unpickler: the bytes under it
// may be a buffer the store reuses once Unpickle returns (Txn.Prefetch).
type Unpickler struct {
	data []byte
	pos  int
	err  error
}

// NewUnpickler wraps an encoded buffer.
func NewUnpickler(data []byte) *Unpickler { return &Unpickler{data: data} }

// Err returns the first decoding error, if any.
func (u *Unpickler) Err() error { return u.err }

// Remaining returns the number of undecoded bytes.
func (u *Unpickler) Remaining() int { return len(u.data) - u.pos }

func (u *Unpickler) take(n int) []byte {
	if u.err != nil {
		return nil
	}
	if u.pos+n > len(u.data) {
		u.err = fmt.Errorf("objectstore: unpickle overrun (%d of %d bytes)", u.pos+n, len(u.data))
		return nil
	}
	out := u.data[u.pos : u.pos+n]
	u.pos += n
	return out
}

// Uint32 decodes a fixed 32-bit unsigned integer.
func (u *Unpickler) Uint32() uint32 {
	b := u.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 decodes a fixed 64-bit unsigned integer.
func (u *Unpickler) Uint64() uint64 {
	b := u.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int32 decodes a 32-bit signed integer.
func (u *Unpickler) Int32() int32 { return int32(u.Uint32()) }

// Int64 decodes a 64-bit signed integer.
func (u *Unpickler) Int64() int64 { return int64(u.Uint64()) }

// Int decodes an int written with Pickler.Int.
func (u *Unpickler) Int() int { return int(u.Int64()) }

// Bool decodes a boolean.
func (u *Unpickler) Bool() bool {
	b := u.take(1)
	return b != nil && b[0] != 0
}

// Byte decodes a single byte.
func (u *Unpickler) Byte() byte {
	b := u.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Float64 decodes a float64.
func (u *Unpickler) Float64() float64 { return math.Float64frombits(u.Uint64()) }

// BytesVal decodes a length-prefixed byte slice (copied).
func (u *Unpickler) BytesVal() []byte {
	n := int(u.Uint32())
	if u.err != nil {
		return nil
	}
	b := u.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String decodes a length-prefixed string.
func (u *Unpickler) String() string {
	n := int(u.Uint32())
	if u.err != nil {
		return ""
	}
	b := u.take(n)
	return string(b)
}

// ObjectID decodes a persistent object reference.
func (u *Unpickler) ObjectID() ObjectID { return ObjectID(u.Uint64()) }

// ObjectIDs decodes a slice of object references. The count is untrusted:
// the slice is pre-sized only to what the remaining bytes can hold.
func (u *Unpickler) ObjectIDs() []ObjectID {
	n := int(u.Uint32())
	if u.err != nil || n < 0 {
		return nil
	}
	out := make([]ObjectID, 0, min(n, u.Remaining()/8))
	for i := 0; i < n; i++ {
		out = append(out, u.ObjectID())
		if u.err != nil {
			return nil
		}
	}
	return out
}

// RawBytes decodes n bytes without a prefix.
func (u *Unpickler) RawBytes(n int) []byte {
	b := u.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// GobPickle encodes v with encoding/gob and appends it length-prefixed; the
// convenience path for classes that do not hand-roll their layout. Pair
// with GobUnpickle.
func GobPickle(p *Pickler, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("objectstore: gob pickling: %w", err)
	}
	p.BytesVal(buf.Bytes())
	return nil
}

// GobUnpickle reverses GobPickle into v (a pointer).
func GobUnpickle(u *Unpickler, v any) error {
	data := u.BytesVal()
	if err := u.Err(); err != nil {
		return err
	}
	if data == nil {
		return errors.New("objectstore: gob unpickling: empty payload")
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("objectstore: gob unpickling: %w", err)
	}
	return nil
}
