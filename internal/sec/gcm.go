package sec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// The aes-gcm record header is salt(8) ‖ seed(8). Every hash, MAC and leaf
// is 20 bytes, the sizes of the paper's SHA-1 suite; a leaf is the 16-byte
// tag and 4 zero bytes.
const gcmHeaderSize, gcmLeafSize, gcmTagSize = 16, 20, 16

// shortDigest is the leaf Digest gives input shorter than a header, which
// Open rejects: its pad is not zero, so it is no real record's leaf.
var shortDigest = [gcmLeafSize]byte{gcmTagSize: 0xff}

// gcmSuite is aes-gcm: AES-128-GCM under one key, with SHA-256 and
// HMAC-SHA256 truncated to 20 bytes for everything else. A record is
// salt(8) ‖ seed(8) ‖ GCM ciphertext, without the tag; its nonce is
// AES_kiv(salt ‖ seed)[:12]. The salt is drawn from crypto/rand per
// instance, so two stores under one device secret whose IV generations both
// restart at 0 (a restore target, a reformat) never share a nonce.
type gcmSuite struct {
	*digests
	aead    cipher.AEAD
	block   cipher.Block // the GCM key, for Decrypt's counter-mode pass
	ivBlock cipher.Block
	salt    [8]byte
}

// NewAESGCM returns the default suite, a faster alternative to the paper's
// 3DES and SHA-1 of the kind it anticipates (§7.3).
func NewAESGCM(secret []byte) (Suite, error) {
	block, err := aesBlock(secret, "enc")
	if err != nil {
		return nil, err
	}
	ivBlock, err := aesBlock(secret, "iv")
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sec: creating GCM: %w", err)
	}
	macKey, err := deriveKey(secret, "mac", 32)
	if err != nil {
		return nil, err
	}
	s := &gcmSuite{digests: newDigests(sha256.New, macKey, gcmLeafSize), aead: aead, block: block, ivBlock: ivBlock}
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

func (s *gcmSuite) Name() string { return "aes-gcm" }

// nonce turns a header into its nonce, AES_kiv(header)[:12], in place and
// returns it: in a buffer the caller owns, it needs no heap object.
func (s *gcmSuite) nonce(hdr []byte) []byte {
	s.ivBlock.Encrypt(hdr, hdr[:gcmHeaderSize])
	return hdr[:12]
}

// Seal implements Suite. The leaf's room holds the nonce, then the tag.
func (s *gcmSuite) Seal(plaintext []byte, iv uint64) ([]byte, []byte, error) {
	out := make([]byte, gcmHeaderSize, gcmHeaderSize+len(plaintext)+gcmTagSize)
	copy(out, s.salt[:])
	binary.BigEndian.PutUint64(out[8:], iv)
	leaf := append(make([]byte, 0, gcmLeafSize), out...)
	out = s.aead.Seal(out, s.nonce(leaf), plaintext, nil)
	end := len(out) - gcmTagSize
	copy(leaf, out[end:])
	return out[:end:end], append(leaf, 0, 0, 0, 0), nil
}

// Open implements Suite: GCM's Open over the payload with the leaf's tag
// written after it, one pass. The header becomes the nonce.
func (s *gcmSuite) Open(record, leaf []byte) ([]byte, error) {
	if len(record) < gcmHeaderSize || len(leaf) != gcmLeafSize || [4]byte(leaf[gcmTagSize:]) != [4]byte{} {
		return nil, ErrTampered
	}
	if cap(record)-len(record) < gcmTagSize {
		record = append(make([]byte, 0, len(record)+gcmTagSize), record...)
	}
	payload := record[gcmHeaderSize:]
	plain, err := s.aead.Open(payload[:0], s.nonce(record), append(payload, leaf[:gcmTagSize]...), nil)
	if err != nil {
		return nil, ErrTampered
	}
	return plain, nil
}

// Check implements Suite: Open of a private copy, GCM having no tag check
// apart from decryption.
func (s *gcmSuite) Check(record, leaf []byte) error {
	_, err := s.Open(append(make([]byte, 0, len(record)+gcmTagSize), record...), leaf)
	return err
}

// Digest implements Suite: the tag of a copy decrypted and resealed under
// the nonce Decrypt leaves in its header, zero-padded to 20 bytes.
func (s *gcmSuite) Digest(dst, record []byte) []byte {
	buf := append(make([]byte, 0, len(record)+gcmTagSize), record...)
	plain, err := s.Decrypt(buf)
	if err != nil {
		return append(dst, shortDigest[:]...)
	}
	tag := s.aead.Seal(plain[:0], buf[:12], plain, nil)[len(plain):]
	return append(append(dst, tag...), 0, 0, 0, 0)
}

// Encrypt implements Suite: Seal without the leaf.
func (s *gcmSuite) Encrypt(plaintext []byte, iv uint64) (record []byte, err error) {
	record, _, err = s.Seal(plaintext, iv)
	return record, err
}

// Decrypt implements Suite, XORing the GCM keystream over the payload in
// place: the header becomes its first counter block, the nonce and counter
// 2 (counter 1 masks the tag). GCM's counter wraps at 32 bits where this
// one carries, which differs only past 64 GiB.
func (s *gcmSuite) Decrypt(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < gcmHeaderSize {
		return nil, fmt.Errorf("%w: length %d", ErrBadCiphertext, len(ciphertext))
	}
	s.nonce(ciphertext)
	binary.BigEndian.PutUint32(ciphertext[12:gcmHeaderSize], 2)
	out := ciphertext[gcmHeaderSize:]
	cipher.NewCTR(s.block, ciphertext[:gcmHeaderSize]).XORKeyStream(out, out)
	return out, nil
}
