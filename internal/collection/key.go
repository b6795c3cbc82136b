// Package collection implements TDB's collection store (paper §5): keyed
// access to collections of typed objects through one or more automatically
// maintained indexes.
//
// Indexes are functional (paper §5.1.1): keys are produced by applying a
// pure extractor function to a collection object, so keys may be derived
// from several fields, be variable-sized, and evolve with the schema —
// none of which offset-based embedded databases support. Indexes can be
// organized as B-trees, dynamic (linear) hash tables [20], or lists, and
// are created and removed dynamically without rebuilding the database.
//
// Applications query collections with scan, exact-match, and range queries
// and iterate results through insensitive iterators (§5.2.2): an iterator
// never observes its own transaction's updates; index maintenance is
// deferred until the iterator closes, which also rules out the Halloween
// syndrome.
package collection

import (
	"encoding/binary"
	"math"
)

// Key is an index key. Encode must produce an order-preserving byte
// encoding: Encode(a) < Encode(b) lexicographically iff a sorts before b.
// Index structures compare and hash only the encoded form, which is also
// what gets stored in index nodes — no key codec plumbing is needed.
type Key interface {
	Encode() []byte
}

// hashEncoded hashes an encoded key for the dynamic hash table: 64-bit
// FNV-1a, spelled out so a lookup allocates no hash.Hash. Bucket placement
// on disk depends on these exact values.
func hashEncoded(enc []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range enc {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// IntKey orders int64 values numerically. Encoding flips the sign bit so
// negative values sort before positive ones.
type IntKey int64

// Encode implements Key.
func (k IntKey) Encode() []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k)^(1<<63))
	return b[:]
}

// UintKey orders uint64 values numerically.
type UintKey uint64

// Encode implements Key.
func (k UintKey) Encode() []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k))
	return b[:]
}

// StringKey orders strings lexicographically.
type StringKey string

// Encode implements Key. The terminator byte 0x00 is escaped (0x00→0x00
// 0xFF) and a final 0x00 0x00 appended so that string keys remain
// order-preserving and prefix-free inside composite keys.
func (k StringKey) Encode() []byte {
	out := make([]byte, 0, len(k)+2)
	for i := 0; i < len(k); i++ {
		c := k[i]
		out = append(out, c)
		if c == 0x00 {
			out = append(out, 0xFF)
		}
	}
	return append(out, 0x00, 0x00)
}

// BytesKey orders raw byte strings lexicographically (with the same
// escaping as StringKey).
type BytesKey []byte

// Encode implements Key.
func (k BytesKey) Encode() []byte { return StringKey(k).Encode() }

// FloatKey orders float64 values numerically (NaN sorts last).
type FloatKey float64

// Encode implements Key using the standard order-preserving bit transform:
// positive floats flip the sign bit, negative floats flip all bits.
func (k FloatKey) Encode() []byte {
	bits := math.Float64bits(float64(k))
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], bits)
	return b[:]
}

// BoolKey orders false before true.
type BoolKey bool

// Encode implements Key.
func (k BoolKey) Encode() []byte {
	if k {
		return []byte{1}
	}
	return []byte{0}
}

// CompositeKey concatenates several keys; ordering is lexicographic over
// the components. Component encodings are self-delimiting (fixed-width
// integers, terminated strings), so no extra framing is needed.
type CompositeKey []Key

// Encode implements Key.
func (k CompositeKey) Encode() []byte {
	var out []byte
	for _, part := range k {
		out = append(out, part.Encode()...)
	}
	return out
}
