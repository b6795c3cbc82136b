package sec

import (
	"encoding/binary"
	"hash/crc32"
)

// nullSuite disables security. It corresponds to the paper's plain "TDB"
// configuration, which skips hashing and encryption and their storage
// overheads (§7.3). Hash, MAC and the leaves are a CRC-32C checksum padded
// to 8 bytes, so that the chunk store's structural checks keep catching
// bugs and honest corruption; they resist no attacker.
type nullSuite struct{ hashLeaves }

// NewNull returns the security-off suite.
func NewNull() Suite {
	s := &nullSuite{}
	s.s = s
	return s
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (nullSuite) Name() string { return "null" }

// Encrypt implements Suite as a copy.
func (nullSuite) Encrypt(plaintext []byte, _ uint64) ([]byte, error) {
	return append([]byte(nil), plaintext...), nil
}

// Decrypt implements Suite as the identity transform.
func (nullSuite) Decrypt(ciphertext []byte) ([]byte, error) { return ciphertext, nil }

// Hash implements Suite with CRC-32C (Castagnoli), zero-padded to 8 bytes.
func (nullSuite) Hash(data []byte) []byte {
	sum := crcSum(data)
	return sum[:]
}

// hashIs implements leafHasher.
func (nullSuite) hashIs(record, leaf []byte) bool {
	sum := crcSum(record)
	return HashEqual(sum[:], leaf)
}

// crcSum is Hash into an array.
func crcSum(data []byte) (sum [8]byte) {
	binary.BigEndian.PutUint32(sum[:4], crc32.Checksum(data, castagnoli))
	return sum
}

// HashSize implements Suite.
func (nullSuite) HashSize() int { return 8 }

// MAC implements Suite; without a key it is only a checksum.
func (s nullSuite) MAC(data []byte) []byte { return s.Hash(data) }
