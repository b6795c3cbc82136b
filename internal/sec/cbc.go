package sec

import (
	"crypto/cipher"
	"crypto/des"
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// cbcSuite is the paper's TDB-S suite (§7.3): 3DES-CBC with PKCS#7 padding
// and a derived IV, SHA-1 hashing, and HMAC-SHA1.
type cbcSuite struct {
	*digests
	hashLeaves
	block cipher.Block
	ivKey []byte
}

// NewDES3SHA1 returns the paper's TDB-S suite: 3DES-CBC encryption with
// SHA-1 hashing (§7.3).
func NewDES3SHA1(secret []byte) (Suite, error) {
	key, err := deriveKey(secret, "enc", 24)
	if err != nil {
		return nil, err
	}
	fixDESParity(key)
	block, err := des.NewTripleDESCipher(key)
	if err != nil {
		return nil, fmt.Errorf("sec: creating 3DES cipher: %w", err)
	}
	macKey, err := deriveKey(secret, "mac", 32)
	if err != nil {
		return nil, err
	}
	ivKey, err := deriveKey(secret, "iv", 32)
	if err != nil {
		return nil, err
	}
	s := &cbcSuite{digests: newDigests(sha1.New, macKey, sha1.Size), block: block, ivKey: ivKey}
	s.hashLeaves.s = s
	return s, nil
}

func (s *cbcSuite) Name() string { return "3des-sha1" }

// hashIs implements leafHasher with Hash's SHA-1, summed into an array.
func (s *cbcSuite) hashIs(record, leaf []byte) bool {
	sum := sha1.Sum(record)
	return HashEqual(sum[:], leaf)
}

// deriveIV computes a deterministic, unique IV for the given seed under a
// dedicated key (the standard "encrypted counter" IV construction).
func (s *cbcSuite) deriveIV(seed uint64) []byte {
	bs := s.block.BlockSize()
	m := hmac.New(sha256.New, s.ivKey)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	m.Write(b[:])
	return m.Sum(nil)[:bs]
}

// Encrypt implements Suite. Ciphertext layout: IV || CBC(pad(plaintext)).
func (s *cbcSuite) Encrypt(plaintext []byte, iv uint64) ([]byte, error) {
	bs := s.block.BlockSize()
	ivb := s.deriveIV(iv)
	padded := padPKCS7(plaintext, bs)
	out := make([]byte, bs+len(padded))
	copy(out, ivb)
	cipher.NewCBCEncrypter(s.block, ivb).CryptBlocks(out[bs:], padded)
	return out, nil
}

// Decrypt implements Suite, decrypting the blocks after the IV in place
// and returning them unpadded. Besides malformed lengths it rejects invalid
// padding, which catches some tampering but is no integrity check.
func (s *cbcSuite) Decrypt(ciphertext []byte) ([]byte, error) {
	bs := s.block.BlockSize()
	if len(ciphertext) < 2*bs || (len(ciphertext)-bs)%bs != 0 {
		return nil, fmt.Errorf("%w: length %d", ErrBadCiphertext, len(ciphertext))
	}
	body := ciphertext[bs:]
	cipher.NewCBCDecrypter(s.block, ciphertext[:bs]).CryptBlocks(body, body)
	return unpadPKCS7(body, bs)
}
