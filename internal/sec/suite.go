// Package sec implements the cryptographic suite TDB uses to protect the
// database on untrusted storage: secrecy by encrypting every chunk with a
// key derived from the device secret, and tamper detection by one-way
// hashing (the hashes form a Merkle tree in the chunk store's location map)
// plus a MAC over the database root (paper §3).
//
// The paper's evaluation configures SHA-1 for hashing and 3DES for
// encryption (§7.3) and notes that "there are other algorithms that are as
// secure as 3DES and run significantly faster"; this package therefore also
// provides aes-gcm (the default, whose Merkle leaf is a chunk's GCM tag, so
// a read authenticates and decrypts in one pass) and a null suite
// corresponding to the paper's security-off "TDB" configuration.
package sec

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"hash"
	"sync"
)

var (
	// ErrBadPadding is CBC decryption finding invalid padding.
	ErrBadPadding = errors.New("sec: invalid padding")
	// ErrBadCiphertext is a ciphertext of impossible length.
	ErrBadCiphertext = errors.New("sec: malformed ciphertext")
	// ErrTampered is a record that fails authentication against its leaf.
	ErrTampered = errors.New("sec: record fails authentication")
)

// OpenSlack is the spare capacity past a record that Open uses to open it
// in place: the aes-gcm tag is written there. A record with less allocates.
const OpenSlack = 16

// Suite bundles the crypto the chunk store and backup store use.
// Implementations must be safe for concurrent use.
type Suite interface {
	// Name identifies the suite ("3des-sha1", "aes-gcm", "null"), recorded
	// in the superblock so a database reopens only under its own suite.
	Name() string

	// Seal encrypts a chunk's plaintext into a record and returns the
	// record's Merkle leaf, HashSize bytes, which the record does not carry
	// (the chunk store keeps it in the parent map node). iv seeds the IV
	// and must be unique per encryption under one key: the chunk store
	// draws it as generation<<20 | slot, generations from a counter that
	// never repeats across the life of the database.
	Seal(plaintext []byte, iv uint64) (record, leaf []byte, err error)

	// Open authenticates a record against its leaf and decrypts it in
	// place, returning a subslice of record, which the caller must own. It
	// may write the OpenSlack bytes past the record if its capacity has
	// them (under aes-gcm it then allocates nothing) and copies it
	// otherwise. A failed check is ErrTampered and leaves it unspecified.
	Open(record, leaf []byte) ([]byte, error)

	// Check authenticates a record against its leaf and leaves it intact,
	// for a caller that keeps the ciphertext (an audit, the cleaner). The
	// suites whose leaf is the record's Hash compare hashes; aes-gcm opens
	// a private copy. A failed check is ErrTampered.
	Check(record, leaf []byte) error

	// Digest appends the leaf of a record to dst, leaving record intact,
	// for whoever holds a record but not its leaf (recovery's replay).
	// Under aes-gcm it decrypts a copy and reseals it, two passes.
	Digest(dst, record []byte) []byte

	// Encrypt encrypts as Seal does, for records the chunk store links by
	// Hash or MAC instead (map nodes, checkpoints).
	Encrypt(plaintext []byte, iv uint64) ([]byte, error)

	// Decrypt reverses Encrypt in place without authenticating, returning
	// a subslice of its argument; decrypting the same bytes twice does not
	// give the plaintext. It rejects only input it cannot parse: integrity
	// comes from the Hash or MAC checked first.
	Decrypt(ciphertext []byte) ([]byte, error)

	// Hash is the one-way hash of Merkle inner nodes, map nodes and the
	// round chain; HashSize is its length and a leaf's.
	Hash(data []byte) []byte
	HashSize() int

	// MAC, HashSize bytes too, is keyed with the device secret and signs
	// the database anchor and backup trailers.
	MAC(data []byte) []byte
}

// VerifyMAC reports whether mac is a valid MAC for data under the suite,
// using a constant-time comparison.
func VerifyMAC(s Suite, data, mac []byte) bool { return hmac.Equal(s.MAC(data), mac) }

// HashEqual compares two hash values in constant time.
func HashEqual(a, b []byte) bool { return hmac.Equal(a, b) }

// NewSuite constructs the named suite keyed from the device secret.
// Supported names: "3des-sha1" (the paper's TDB-S configuration),
// "aes-gcm" (the default), and "null" (security off).
func NewSuite(name string, secret []byte) (Suite, error) {
	switch name {
	case "3des-sha1":
		return NewDES3SHA1(secret)
	case "aes-gcm":
		return NewAESGCM(secret)
	case "null":
		return NewNull(), nil
	default:
		return nil, fmt.Errorf("sec: unknown suite %q", name)
	}
}

// hashLeaves gives a suite whose leaf is the Hash of its record
// (3des-sha1, null) its Seal, Open, Check and Digest.
type hashLeaves struct{ s Suite }

// Seal implements Suite: Encrypt, then Hash.
func (h hashLeaves) Seal(plaintext []byte, iv uint64) ([]byte, []byte, error) {
	record, err := h.s.Encrypt(plaintext, iv)
	if err != nil {
		return nil, nil, err
	}
	return record, h.s.Hash(record), nil
}

// Open implements Suite: a Hash check, then Decrypt.
func (h hashLeaves) Open(record, leaf []byte) ([]byte, error) {
	if !HashEqual(h.s.Hash(record), leaf) {
		return nil, ErrTampered
	}
	plain, err := h.s.Decrypt(record)
	if err != nil {
		return nil, ErrTampered
	}
	return plain, nil
}

// Check implements Suite with a Hash compare.
func (h hashLeaves) Check(record, leaf []byte) error {
	if !HashEqual(h.s.Hash(record), leaf) {
		return ErrTampered
	}
	return nil
}

// Digest implements Suite with Hash.
func (h hashLeaves) Digest(dst, record []byte) []byte { return append(dst, h.s.Hash(record)...) }

// digests implements a keyed suite's Hash and MAC (HMAC under macKey),
// both truncated to size bytes. Pools avoid allocating a hash.Hash per
// call on hot paths.
type digests struct {
	size     int
	hashPool sync.Pool
	macPool  sync.Pool
}

func newDigests(hf func() hash.Hash, macKey []byte, size int) *digests {
	d := &digests{size: size}
	d.hashPool.New = func() any { return hf() }
	d.macPool.New = func() any { return hmac.New(hf, macKey) }
	return d
}

func (d *digests) sum(pool *sync.Pool, data []byte) []byte {
	h := pool.Get().(hash.Hash)
	h.Reset()
	h.Write(data)
	sum := h.Sum(nil)[:d.size]
	pool.Put(h)
	return sum
}

// Hash implements Suite.
func (d *digests) Hash(data []byte) []byte { return d.sum(&d.hashPool, data) }

// HashSize implements Suite.
func (d *digests) HashSize() int { return d.size }

// MAC implements Suite.
func (d *digests) MAC(data []byte) []byte { return d.sum(&d.macPool, data) }
