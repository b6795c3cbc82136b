package sec

import (
	"encoding/binary"
	"hash/fnv"
)

// nullSuite disables security. It corresponds to the paper's plain "TDB"
// configuration, which skips hashing and encryption and their storage
// overheads (§7.3). Hash and MAC still return short non-cryptographic
// checksums so that the chunk store's structural integrity checks (catching
// bugs and accidental corruption, not attackers) keep working.
type nullSuite struct{}

// NewNull returns the security-off suite.
func NewNull() Suite { return nullSuite{} }

func (nullSuite) Name() string { return "null" }

// Encrypt implements Suite as the identity transform.
func (nullSuite) Encrypt(plaintext []byte, _ uint64) ([]byte, error) {
	return append([]byte(nil), plaintext...), nil
}

// Decrypt implements Suite as the identity transform: the plaintext is
// the ciphertext buffer itself.
func (nullSuite) Decrypt(ciphertext []byte) ([]byte, error) {
	return ciphertext, nil
}

// Hash implements Suite with a 64-bit FNV-1a checksum (6-byte truncation
// would match the paper's 6-byte per-chunk hash overhead note, but 8 bytes
// keeps alignment simple).
func (nullSuite) Hash(data []byte) []byte {
	h := fnv.New64a()
	h.Write(data)
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, h.Sum64())
	return out
}

// Digest implements Suite with Hash.
func (s nullSuite) Digest(dst, ciphertext []byte) []byte { return append(dst, s.Hash(ciphertext)...) }

// HashSize implements Suite.
func (nullSuite) HashSize() int { return 8 }

// MAC implements Suite; without a key it is only a checksum.
func (s nullSuite) MAC(data []byte) []byte { return s.Hash(data) }

// MACSize implements Suite.
func (nullSuite) MACSize() int { return 8 }

// Overhead implements Suite.
func (nullSuite) Overhead(int) int { return 0 }
