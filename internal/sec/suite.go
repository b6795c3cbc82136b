// Package sec implements the cryptographic suite TDB uses to protect the
// database on untrusted storage: secrecy by encrypting every chunk with a
// key derived from the device secret, and tamper detection by one-way
// hashing (the hashes form a Merkle tree in the chunk store's location map)
// plus a MAC over the database root (paper §3).
//
// The paper's evaluation configures SHA-1 for hashing and 3DES for
// encryption (§7.3) and notes that "there are other algorithms that are as
// secure as 3DES and run significantly faster"; this package therefore also
// provides aes-ctr-gmac (the default: AES-128-CTR, GMAC chunk digests and
// truncated SHA-256 elsewhere) and a null suite corresponding to the
// paper's security-off "TDB" configuration.
package sec

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"hash"
	"sync"
)

// Common errors.
var (
	// ErrBadPadding is returned when CBC decryption produces invalid
	// padding, typically because the ciphertext was tampered with or
	// decrypted with the wrong key.
	ErrBadPadding = errors.New("sec: invalid padding")
	// ErrBadCiphertext is returned when a ciphertext is malformed (wrong
	// length or too short to contain an IV).
	ErrBadCiphertext = errors.New("sec: malformed ciphertext")
)

// Suite bundles the encryption, hashing, and authentication operations used
// by the chunk store and backup store. Implementations must be safe for
// concurrent use.
type Suite interface {
	// Name identifies the suite ("3des-sha1", "aes-ctr-gmac", "null"). It
	// is recorded in the database superblock so a database is always
	// reopened with the suite it was created with.
	Name() string

	// Encrypt encrypts plaintext. The ciphertext embeds any IV needed for
	// decryption. The iv parameter seeds deterministic IV derivation and
	// must be unique per encryption under one key; the chunk store
	// partitions the seed space as generation<<20 | slot, where generations
	// are drawn from a process-wide counter (one per commit preparation,
	// and a few per checkpoint) and the 20-bit slot numbers the
	// operations within it, so equal plaintexts never produce equal
	// ciphertexts even across concurrent commit preparations.
	Encrypt(plaintext []byte, iv uint64) ([]byte, error)

	// Decrypt reverses Encrypt, in place: it overwrites ciphertext and
	// returns the plaintext as a subslice of it, allocating nothing. The
	// caller must own the buffer and must not read it as ciphertext again
	// (a second Decrypt of the same bytes decrypts the plaintext). On error
	// the buffer's contents are unspecified. It does not authenticate: a
	// tampered ciphertext may decrypt to garbage without an error, and a
	// suite rejects only input it cannot parse. Integrity comes from Digest
	// (the Merkle leaves over ciphertexts), Hash and MAC, checked before
	// Decrypt runs.
	Decrypt(ciphertext []byte) ([]byte, error)

	// Digest appends the Merkle leaf digest of a chunk ciphertext, an
	// Encrypt output, to dst and returns the extended slice. The digest is
	// HashSize bytes for any input, and dst must not overlap ciphertext.
	// Under aes-ctr-gmac it is a GMAC tag keyed from the device secret and
	// appending it to spare capacity in dst allocates nothing; the other
	// suites digest with Hash.
	Digest(dst, ciphertext []byte) []byte

	// Hash computes the one-way hash used for Merkle tree inner nodes, map
	// nodes and the round chain.
	Hash(data []byte) []byte

	// HashSize returns the byte length of Hash and Digest results.
	HashSize() int

	// MAC computes a message authentication code keyed with the device
	// secret, used to sign the database anchor and backup trailers.
	MAC(data []byte) []byte

	// MACSize returns the byte length of MAC results.
	MACSize() int

	// Overhead returns the worst-case ciphertext expansion for a plaintext
	// of length n (IV plus padding).
	Overhead(n int) int
}

// VerifyMAC reports whether mac is a valid MAC for data under the suite,
// using a constant-time comparison.
func VerifyMAC(s Suite, data, mac []byte) bool {
	return hmac.Equal(s.MAC(data), mac)
}

// HashEqual compares two hash values in constant time.
func HashEqual(a, b []byte) bool {
	return hmac.Equal(a, b)
}

// NewSuite constructs the named suite keyed from the device secret.
// Supported names: "3des-sha1" (the paper's TDB-S configuration),
// "aes-ctr-gmac" (the default), and "null" (security off).
func NewSuite(name string, secret []byte) (Suite, error) {
	switch name {
	case "3des-sha1":
		return NewDES3SHA1(secret)
	case "aes-ctr-gmac":
		return NewAESCTRGMAC(secret)
	case "null":
		return NewNull(), nil
	default:
		return nil, fmt.Errorf("sec: unknown suite %q", name)
	}
}

type hashFactory func() hash.Hash

// digests implements a keyed suite's Hash and MAC (HMAC under macKey),
// both truncated to size bytes. Pools avoid allocating a hash.Hash per
// call on hot paths.
type digests struct {
	size     int
	hashPool sync.Pool
	macPool  sync.Pool
}

func newDigests(hf hashFactory, macKey []byte, size int) *digests {
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

// MACSize implements Suite.
func (d *digests) MACSize() int { return d.size }
