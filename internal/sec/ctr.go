package sec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
)

// ctrHeaderSize is the per-ciphertext header of the CTR suite: an 8-byte
// per-instance salt followed by the 8-byte IV seed.
const ctrHeaderSize = 16

// ctrDigestSize is the size of every aes-ctr-gmac hash, MAC and chunk
// digest: 20 bytes, so map entries, commit records and superblock slots
// keep the sizes of the paper's SHA-1 suite.
const ctrDigestSize = 20

// gmacTagSize is the size of a GMAC tag, the part of a chunk digest that
// is not zero pad.
const gmacTagSize = 16

// shortDigest is the chunk digest of input shorter than the header, which
// no Encrypt output is and Decrypt rejects. Its pad is not zero, so it
// equals the digest of no real ciphertext.
var shortDigest = [ctrDigestSize]byte{gmacTagSize: 0xff}

// ctrSuite is the default suite, aes-ctr-gmac: AES-128-CTR encryption, a
// GMAC chunk digest, and SHA-256 hashing and HMAC-SHA256, both truncated to
// 20 bytes. Ciphertext layout: salt(8) ‖ seed(8) ‖ CTR(plaintext), no
// padding, with the counter starting at AES_kiv(salt ‖ seed). The salt is
// drawn from crypto/rand once per instance, so two stores under one device
// secret whose IV generations both restart at 0 (a restore target, a
// reformat) never share a keystream.
type ctrSuite struct {
	*digests
	block   cipher.Block
	ivBlock cipher.Block
	gmac    cipher.AEAD
	salt    [8]byte
}

// NewAESCTRGMAC returns the default suite: AES-128-CTR encryption whose
// chunk digests are GMAC tags over the ciphertext, with SHA-256 and
// HMAC-SHA256 truncated to 160 bits for everything else. The paper
// anticipates such faster alternatives to its 3DES and SHA-1 (§7.3).
func NewAESCTRGMAC(secret []byte) (Suite, error) {
	block, err := aesBlock(secret, "enc")
	if err != nil {
		return nil, err
	}
	ivBlock, err := aesBlock(secret, "iv")
	if err != nil {
		return nil, err
	}
	digestBlock, err := aesBlock(secret, "digest")
	if err != nil {
		return nil, err
	}
	gmac, err := cipher.NewGCMWithNonceSize(digestBlock, ctrHeaderSize)
	if err != nil {
		return nil, fmt.Errorf("sec: creating GMAC: %w", err)
	}
	macKey, err := deriveKey(secret, "mac", 32)
	if err != nil {
		return nil, err
	}
	s := &ctrSuite{digests: newDigests(sha256.New, macKey, ctrDigestSize), block: block, ivBlock: ivBlock, gmac: gmac}
	if _, err := rand.Read(s.salt[:]); err != nil {
		return nil, fmt.Errorf("sec: drawing suite salt: %w", err)
	}
	return s, nil
}

// aesBlock returns AES-128 under the subkey derived for label.
func aesBlock(secret []byte, label string) (cipher.Block, error) {
	key, err := deriveKey(secret, label, 16)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("sec: creating AES cipher: %w", err)
	}
	return block, nil
}

func (s *ctrSuite) Name() string { return "aes-ctr-gmac" }

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

// Digest implements Suite: the GMAC of the payload with the header as its
// nonce — one GHASH pass over the ciphertext, under a key of its own — and
// the 16-byte tag zero-padded to 20. The nonce is unique per encryption
// under exactly the IV discipline CTR already needs (DESIGN.md §2.2).
func (s *ctrSuite) Digest(dst, ciphertext []byte) []byte {
	if len(ciphertext) < ctrHeaderSize {
		return append(dst, shortDigest[:]...)
	}
	dst = slices.Grow(dst, ctrDigestSize)
	dst = s.gmac.Seal(dst, ciphertext[:ctrHeaderSize], nil, ciphertext[ctrHeaderSize:])
	return append(dst, make([]byte, ctrDigestSize-gmacTagSize)...)
}

// Overhead implements Suite: the header, whatever the length.
func (s *ctrSuite) Overhead(int) int { return ctrHeaderSize }
