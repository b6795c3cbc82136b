package sec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// ctrHeaderSize is the per-ciphertext header of the CTR suite: an 8-byte
// per-instance salt followed by the 8-byte IV seed.
const ctrHeaderSize = 16

// ctrSuite is the default suite: AES-128-CTR encryption, SHA-256 hashing
// and HMAC-SHA256, both truncated to 20 bytes so map entries, commit
// records and superblock slots keep the sizes of the paper's SHA-1 suite.
// Ciphertext layout: salt(8) ‖ seed(8) ‖ CTR(plaintext), no padding, with
// the counter starting at AES_kiv(salt ‖ seed). The salt is drawn from
// crypto/rand once per instance, so two stores under one device secret
// whose IV generations both restart at 0 (a restore target, a reformat)
// never share a keystream.
type ctrSuite struct {
	*digests
	block   cipher.Block
	ivBlock cipher.Block
	salt    [8]byte
}

// NewAESCTRSHA256 returns the default suite: AES-128-CTR with SHA-256 and
// HMAC-SHA256 truncated to 160 bits. The paper anticipates such faster
// alternatives to 3DES (§7.3).
func NewAESCTRSHA256(secret []byte) (Suite, error) {
	key, err := deriveKey(secret, "enc", 16)
	if err != nil {
		return nil, err
	}
	ivKey, err := deriveKey(secret, "iv", 16)
	if err != nil {
		return nil, err
	}
	macKey, err := deriveKey(secret, "mac", 32)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("sec: creating AES cipher: %w", err)
	}
	ivBlock, err := aes.NewCipher(ivKey)
	if err != nil {
		return nil, fmt.Errorf("sec: creating AES cipher: %w", err)
	}
	s := &ctrSuite{digests: newDigests(sha256.New, macKey, 20), block: block, ivBlock: ivBlock}
	if _, err := rand.Read(s.salt[:]); err != nil {
		return nil, fmt.Errorf("sec: drawing suite salt: %w", err)
	}
	return s, nil
}

func (s *ctrSuite) Name() string { return "aes-ctr-sha256" }

// xorKeyStream XORs src into dst under the keystream a header selects.
func (s *ctrSuite) xorKeyStream(dst, src, hdr []byte) {
	var ctr [aes.BlockSize]byte
	s.ivBlock.Encrypt(ctr[:], hdr)
	cipher.NewCTR(s.block, ctr[:]).XORKeyStream(dst, src)
}

// Encrypt implements Suite. Ciphertext layout: salt ‖ seed ‖ CTR(plaintext).
func (s *ctrSuite) Encrypt(plaintext []byte, iv uint64) ([]byte, error) {
	out := make([]byte, ctrHeaderSize+len(plaintext))
	copy(out, s.salt[:])
	binary.BigEndian.PutUint64(out[8:ctrHeaderSize], iv)
	s.xorKeyStream(out[ctrHeaderSize:], plaintext, out[:ctrHeaderSize])
	return out, nil
}

// Decrypt implements Suite, XORing the keystream over the payload in
// place. CTR has no redundancy to check, so only input shorter than the
// header is rejected.
func (s *ctrSuite) Decrypt(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < ctrHeaderSize {
		return nil, fmt.Errorf("%w: length %d", ErrBadCiphertext, len(ciphertext))
	}
	out := ciphertext[ctrHeaderSize:]
	s.xorKeyStream(out, out, ciphertext[:ctrHeaderSize])
	return out, nil
}

// Overhead implements Suite: the header, whatever the length.
func (s *ctrSuite) Overhead(int) int { return ctrHeaderSize }
