package sec

import (
	"bytes"
	"crypto/cipher"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var testSecret = []byte("0123456789abcdef0123456789abcdef")

func allSuites(t testing.TB) map[string]Suite {
	t.Helper()
	des3, err := NewDES3SHA1(testSecret)
	if err != nil {
		t.Fatalf("NewDES3SHA1: %v", err)
	}
	gcm, err := NewAESGCM(testSecret)
	if err != nil {
		t.Fatalf("NewAESGCM: %v", err)
	}
	return map[string]Suite{"3des-sha1": des3, "aes-gcm": gcm, "aes-ctr-gmac": newCTRGMAC(t, testSecret), "null": NewNull()}
}

// ctrGMACSuite models aes-ctr-gmac, the default suite before chunk records
// were sealed with GCM: aes-gcm's cipher, Hash and MAC, with the leaf a
// GMAC tag over the record under a second key, computed in a pass apart
// from decryption. Stores written under it are refused by name (the chunk
// store's TestOpenRefusesRetiredSuite); here it holds a leaf checked apart
// from decryption to the suite tests beside the one-pass suite.
type ctrGMACSuite struct {
	Suite
	gmac cipher.AEAD
}

func newCTRGMAC(t testing.TB, secret []byte) Suite {
	t.Helper()
	base, err := NewAESGCM(secret)
	if err != nil {
		t.Fatalf("NewAESGCM: %v", err)
	}
	block, err := aesBlock(secret, "digest")
	if err != nil {
		t.Fatalf("aesBlock: %v", err)
	}
	gmac, err := cipher.NewGCMWithNonceSize(block, gcmHeaderSize)
	if err != nil {
		t.Fatalf("GMAC: %v", err)
	}
	return ctrGMACSuite{Suite: base, gmac: gmac}
}

func (ctrGMACSuite) Name() string { return "aes-ctr-gmac" }

func (s ctrGMACSuite) Seal(plaintext []byte, iv uint64) ([]byte, []byte, error) {
	record, err := s.Encrypt(plaintext, iv)
	return record, s.Digest(nil, record), err
}

func (s ctrGMACSuite) Open(record, leaf []byte) ([]byte, error) {
	if !HashEqual(s.Digest(nil, record), leaf) {
		return nil, ErrTampered
	}
	plain, err := s.Decrypt(record)
	if err != nil {
		return nil, ErrTampered
	}
	return plain, nil
}

func (s ctrGMACSuite) Check(record, leaf []byte) error {
	if !HashEqual(s.Digest(nil, record), leaf) {
		return ErrTampered
	}
	return nil
}

func (s ctrGMACSuite) Digest(dst, record []byte) []byte {
	if len(record) < gcmHeaderSize {
		return append(dst, shortDigest[:]...)
	}
	return append(s.gmac.Seal(dst, record[:gcmHeaderSize], nil, record[gcmHeaderSize:]), 0, 0, 0, 0)
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for name, s := range allSuites(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 100, 4096} {
				pt := make([]byte, n)
				for i := range pt {
					pt[i] = byte(i * 7)
				}
				ct, err := s.Encrypt(pt, uint64(n))
				if err != nil {
					t.Fatalf("Encrypt(%d bytes): %v", n, err)
				}
				got, err := s.Decrypt(ct)
				if err != nil {
					t.Fatalf("Decrypt(%d bytes): %v", n, err)
				}
				if !bytes.Equal(got, pt) {
					t.Fatalf("round trip mismatch at %d bytes", n)
				}
			}
		})
	}
}

// TestSealOpenRoundTrip: a sealed record opens against its leaf, which is
// HashSize bytes and what Digest recomputes from the record alone; Open
// works in place in a buffer with OpenSlack spare bytes, allocating nothing
// under aes-gcm.
func TestSealOpenRoundTrip(t *testing.T) {
	for name, s := range allSuites(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 15, 16, 17, 100, 4096} {
				pt := bytes.Repeat([]byte{byte(n), 7}, n)[:n]
				record, leaf, err := s.Seal(pt, uint64(n))
				if err != nil {
					t.Fatalf("Seal(%d bytes): %v", n, err)
				}
				if ct, _ := s.Encrypt(pt, uint64(n)); !bytes.Equal(ct, record) {
					t.Fatalf("Seal(%d bytes) and Encrypt disagree", n)
				}
				if len(leaf) != s.HashSize() || !HashEqual(s.Digest(nil, record), leaf) {
					t.Fatalf("Seal(%d bytes): leaf %x is not Digest %x", n, leaf, s.Digest(nil, record))
				}
				kept := append([]byte(nil), record...)
				if err := s.Check(record, leaf); err != nil || !bytes.Equal(record, kept) {
					t.Fatalf("Check(Seal(%d bytes)) = %v, record intact %v", n, err, bytes.Equal(record, kept))
				}
				buf := make([]byte, len(record), len(record)+OpenSlack)
				var got []byte
				allocs := testing.AllocsPerRun(1, func() {
					copy(buf, record)
					got, err = s.Open(buf, leaf)
				})
				if err != nil || !bytes.Equal(got, pt) || !subslice(got, buf) {
					t.Fatalf("Open(Seal(%d bytes)) = %d bytes, %v; want the plaintext, in place", n, len(got), err)
				}
				if name == "aes-gcm" && allocs != 0 {
					t.Fatalf("Open of %d bytes in place allocates %.0f objects", n, allocs)
				}
				if got, err := s.Open(append([]byte(nil), record...), leaf); err != nil || !bytes.Equal(got, pt) {
					t.Fatalf("Open of %d bytes with no spare capacity: %d bytes, %v", n, len(got), err)
				}
			}
		})
	}
}

// TestOpenRejectsTamperedRecords flips every bit position's byte of a
// record's header and ciphertext and of its leaf in turn: each must fail
// Check with ErrTampered, leaving the record intact, and Open with
// ErrTampered and no plaintext.
func TestOpenRejectsTamperedRecords(t *testing.T) {
	for name, s := range allSuites(t) {
		t.Run(name, func(t *testing.T) {
			record, leaf, _ := s.Seal([]byte("protected content, forty bytes long..."), 9)
			try := func(what string, i int, rec, lf []byte) {
				t.Helper()
				kept := append([]byte(nil), rec...)
				if err := s.Check(rec, lf); !errors.Is(err, ErrTampered) || !bytes.Equal(rec, kept) {
					t.Fatalf("%s byte %d flipped: Check = %v, record intact %v; want ErrTampered", what, i, err, bytes.Equal(rec, kept))
				}
				if got, err := s.Open(rec, lf); !errors.Is(err, ErrTampered) || got != nil {
					t.Fatalf("%s byte %d flipped: Open = %q, %v; want ErrTampered", what, i, got, err)
				}
			}
			for i := range record {
				rec := append([]byte(nil), record...)
				rec[i] ^= 0x01
				try("record", i, rec, leaf)
			}
			for i := range leaf {
				lf := append([]byte(nil), leaf...)
				lf[i] ^= 0x80
				try("leaf", i, append([]byte(nil), record...), lf)
			}
			try("leaf", -1, append([]byte(nil), record...), leaf[:len(leaf)-1])
		})
	}
}

func TestEncryptHidesPlaintext(t *testing.T) {
	for name, s := range allSuites(t) {
		if name == "null" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			pt := []byte(strings.Repeat("usage-meter=42;", 10))
			ct, err := s.Encrypt(pt, 1)
			if err != nil {
				t.Fatalf("Encrypt: %v", err)
			}
			if bytes.Contains(ct, []byte("usage-meter")) {
				t.Fatal("ciphertext leaks plaintext")
			}
		})
	}
}

func TestDistinctIVSeedsGiveDistinctCiphertexts(t *testing.T) {
	for name, s := range allSuites(t) {
		if name == "null" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			pt := []byte("the same plaintext twice")
			c1, _ := s.Encrypt(pt, 1)
			c2, _ := s.Encrypt(pt, 2)
			if bytes.Equal(c1, c2) {
				t.Fatal("equal ciphertexts for distinct IV seeds")
			}
			// Same seed, same instance: the same ciphertext. Nothing in
			// the engine re-encrypts under a used seed; this pins that the
			// ciphertext is a function of the key, seed and plaintext only.
			c3, _ := s.Encrypt(pt, 1)
			if !bytes.Equal(c1, c3) {
				t.Fatal("encryption not deterministic for equal IV seed")
			}
		})
	}
}

func TestDecryptRejectsTamperedCiphertext(t *testing.T) {
	for name, s := range allSuites(t) {
		if name == "null" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			pt := []byte("protected content")
			ct, _ := s.Encrypt(pt, 9)
			// Flipping any byte must either fail padding or change the
			// plaintext (never silently return the original).
			for i := range ct {
				mod := append([]byte(nil), ct...)
				mod[i] ^= 0x01
				got, err := s.Decrypt(mod)
				if err == nil && bytes.Equal(got, pt) {
					t.Fatalf("tampering at byte %d went unnoticed", i)
				}
			}
		})
	}
}

// TestDecryptRejectsMalformedLengths: CBC needs a whole number of blocks
// after the IV; CTR has no length structure beyond its header, so it can
// reject only input shorter than that and must accept the empty payload.
func TestDecryptRejectsMalformedLengths(t *testing.T) {
	malformed := map[string][]int{
		"3des-sha1":    {0, 1, 7, 8, 9, 23},
		"aes-gcm":      {0, 1, 8, 15},
		"aes-ctr-gmac": {0, 1, 8, 15},
	}
	for name, s := range allSuites(t) {
		if name == "null" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for _, n := range malformed[name] {
				if _, err := s.Decrypt(make([]byte, n)); !errors.Is(err, ErrBadCiphertext) {
					t.Fatalf("Decrypt of %d-byte garbage: %v, want ErrBadCiphertext", n, err)
				}
			}
		})
	}
	gcm := allSuites(t)["aes-gcm"]
	if got, err := gcm.Decrypt(make([]byte, gcmHeaderSize)); err != nil || len(got) != 0 {
		t.Fatalf("Decrypt of a bare header: %d bytes, %v", len(got), err)
	}
}

// TestCTRSuiteShape pins the byte accounting the default suite promises:
// every record is exactly the plaintext plus a 16-byte header — GCM is
// counter mode, and the tag lives in the leaf — and hashes, leaves and MACs
// are 20 bytes, the sizes of the paper's SHA-1 suite.
func TestCTRSuiteShape(t *testing.T) {
	s := allSuites(t)["aes-gcm"]
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 100, 2500} {
		record, leaf, err := s.Seal(make([]byte, n), uint64(n))
		if err != nil {
			t.Fatalf("Seal(%d bytes): %v", n, err)
		}
		if len(record) != n+16 || len(leaf) != 20 {
			t.Fatalf("%d-byte plaintext: record %d bytes, leaf %d; want %d and 20", n, len(record), len(leaf), n+16)
		}
	}
	if s.HashSize() != 20 || len(s.Hash([]byte("x"))) != 20 || len(s.MAC([]byte("x"))) != 20 || len(s.Digest(nil, []byte("x"))) != 20 {
		t.Fatalf("hash size %d, hash %d, MAC %d bytes; want 20", s.HashSize(), len(s.Hash([]byte("x"))), len(s.MAC([]byte("x"))))
	}
}

// TestCTRInstancesNeverShareAKeystream: two instances under one secret —
// two stores whose IV generations both start at 0 — seal the same seed
// differently (each draws its own salt, so the nonces differ), yet each
// opens the other's records, since the header carries everything the nonce
// needs, and the leaves depend on the secret alone.
func TestCTRInstancesNeverShareAKeystream(t *testing.T) {
	a, _ := NewAESGCM(testSecret)
	b, _ := NewAESGCM(testSecret)
	pt := []byte("same secret, same seed, two stores")
	ca, la, _ := a.Seal(pt, 7)
	cb, lb, _ := b.Seal(pt, 7)
	if bytes.Equal(ca[gcmHeaderSize:], cb[gcmHeaderSize:]) {
		t.Fatal("two instances produced the same keystream for one seed")
	}
	for _, c := range []struct {
		s        Suite
		ct, leaf []byte
	}{{a, cb, lb}, {b, ca, la}} {
		if got, err := c.s.Open(append([]byte(nil), c.ct...), c.leaf); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("cross-instance Open: %q, %v", got, err)
		}
		if got, err := c.s.Decrypt(c.ct); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("cross-instance Decrypt: %q, %v", got, err)
		}
	}
	if !HashEqual(a.MAC(pt), b.MAC(pt)) || !HashEqual(a.Hash(pt), b.Hash(pt)) || !HashEqual(a.Digest(nil, cb), b.Digest(nil, cb)) {
		t.Fatal("hash, MAC or leaf depends on the instance, not only on the secret")
	}
}

// TestGMACDigest pins what the default suite's leaf is: the AES-GCM tag
// over the record's payload — a GMAC over the ciphertext — under the "enc"
// key and the nonce AES_kiv(header)[:12], zero-padded to 20 bytes, keyed
// apart from Hash and by the device secret, and constant for input shorter
// than the header, with a non-zero pad that equals no real leaf.
// FuzzChunkDigest holds every suite's leaf to the rest of its contract.
func TestGMACDigest(t *testing.T) {
	s := allSuites(t)["aes-gcm"]
	pt := bytes.Repeat([]byte("leaf"), 256)
	record, leaf, _ := s.Seal(pt, 9)
	block, _ := aesBlock(testSecret, "enc")
	ivBlock, _ := aesBlock(testSecret, "iv")
	aead, _ := cipher.NewGCM(block)
	var nonce [16]byte
	ivBlock.Encrypt(nonce[:], record[:gcmHeaderSize])
	want := aead.Seal(nil, nonce[:12], pt, nil)
	if !bytes.Equal(want[:len(pt)], record[gcmHeaderSize:]) || !bytes.Equal(leaf, append(want[len(pt):], 0, 0, 0, 0)) {
		t.Fatalf("record or leaf %x is not AES-GCM under the header's nonce (tag %x)", leaf, want[len(pt):])
	}
	if HashEqual(leaf, s.Hash(record)) {
		t.Fatal("the leaf equals Hash")
	}
	other, _ := NewAESGCM([]byte("another-device-secret-0123456789"))
	if HashEqual(leaf, other.Digest(nil, record)) {
		t.Fatal("the leaf does not depend on the device secret")
	}
	for n := 0; n < gcmHeaderSize; n++ {
		if got := s.Digest(nil, record[:n]); !HashEqual(got, shortDigest[:]) {
			t.Fatalf("%d-byte input: digest %x, want %x", n, got, shortDigest)
		}
	}
}

// TestGCMShortDigestAllocs pins Digest of a record shorter than a header
// at exactly one allocation, the digest: such a record is neither copied
// nor decrypted, so no error is built through fmt, whose pooled printer
// state a GC may drop between runs.
func TestGCMShortDigestAllocs(t *testing.T) {
	s := allSuites(t)["aes-gcm"]
	record := []byte("\x00Z\x00\x00Z\x00Z\x00Z\x00\x00Z\x00Z\x00")
	for n := 0; n < gcmHeaderSize; n++ {
		if allocs := testing.AllocsPerRun(100, func() { s.Digest(nil, record[:n]) }); allocs != 1 {
			t.Errorf("Digest of %d bytes allocates %.0f objects, want 1", n, allocs)
		}
	}
}

func TestHashProperties(t *testing.T) {
	for name, s := range allSuites(t) {
		t.Run(name, func(t *testing.T) {
			h1 := s.Hash([]byte("a"))
			h2 := s.Hash([]byte("b"))
			if len(h1) != s.HashSize() {
				t.Fatalf("hash size %d, declared %d", len(h1), s.HashSize())
			}
			if HashEqual(h1, h2) {
				t.Fatal("distinct inputs hashed equal")
			}
			if !HashEqual(h1, s.Hash([]byte("a"))) {
				t.Fatal("hash not deterministic")
			}
		})
	}
}

func TestMACProperties(t *testing.T) {
	for name, s := range allSuites(t) {
		t.Run(name, func(t *testing.T) {
			m := s.MAC([]byte("anchor"))
			if len(m) != s.HashSize() {
				t.Fatalf("MAC size %d, declared %d", len(m), s.HashSize())
			}
			if !VerifyMAC(s, []byte("anchor"), m) {
				t.Fatal("valid MAC rejected")
			}
			if VerifyMAC(s, []byte("anchor2"), m) {
				t.Fatal("MAC for different data accepted")
			}
			bad := append([]byte(nil), m...)
			bad[0] ^= 1
			if VerifyMAC(s, []byte("anchor"), bad) {
				t.Fatal("corrupted MAC accepted")
			}
		})
	}
}

func TestMACKeyDependsOnSecret(t *testing.T) {
	s1, _ := NewDES3SHA1([]byte("secret-one-secret-one-secret-one"))
	s2, _ := NewDES3SHA1([]byte("secret-two-secret-two-secret-two"))
	m := s1.MAC([]byte("anchor"))
	if VerifyMAC(s2, []byte("anchor"), m) {
		t.Fatal("MAC verified under a different device secret")
	}
	// Ciphertext under one secret must not decrypt under another.
	ct, _ := s1.Encrypt([]byte("key material 1234"), 5)
	got, err := s2.Decrypt(ct)
	if err == nil && bytes.Equal(got, []byte("key material 1234")) {
		t.Fatal("cross-secret decryption succeeded")
	}
}

func TestNewSuiteByName(t *testing.T) {
	for _, name := range []string{"3des-sha1", "aes-gcm", "null"} {
		s, err := NewSuite(name, testSecret)
		if err != nil {
			t.Fatalf("NewSuite(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("NewSuite(%q).Name() = %q", name, s.Name())
		}
	}
	for _, name := range []string{"rot13", "aes-ctr-gmac", "aes-ctr-sha256"} {
		if _, err := NewSuite(name, testSecret); err == nil {
			t.Fatalf("unknown suite %q accepted", name)
		}
	}
	if _, err := NewSuite("3des-sha1", nil); err == nil {
		t.Fatal("empty secret accepted")
	}
}

func TestPKCS7(t *testing.T) {
	for _, bs := range []int{8, 16} {
		for n := 0; n <= 3*bs; n++ {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i)
			}
			padded := padPKCS7(data, bs)
			if len(padded)%bs != 0 || len(padded) == len(data) {
				t.Fatalf("bs=%d n=%d: padded length %d", bs, n, len(padded))
			}
			got, err := unpadPKCS7(padded, bs)
			if err != nil {
				t.Fatalf("bs=%d n=%d: unpad: %v", bs, n, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("bs=%d n=%d: round trip mismatch", bs, n)
			}
		}
	}
	// Invalid pads.
	if _, err := unpadPKCS7([]byte{1, 2, 3}, 8); !errors.Is(err, ErrBadPadding) {
		t.Fatalf("non-multiple length: %v", err)
	}
	if _, err := unpadPKCS7([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 8); !errors.Is(err, ErrBadPadding) {
		t.Fatalf("zero pad byte: %v", err)
	}
	if _, err := unpadPKCS7([]byte{9, 9, 9, 9, 9, 9, 9, 9}, 8); !errors.Is(err, ErrBadPadding) {
		t.Fatalf("oversized pad byte: %v", err)
	}
	if _, err := unpadPKCS7([]byte{1, 1, 1, 1, 1, 1, 7, 2}, 8); !errors.Is(err, ErrBadPadding) {
		t.Fatalf("inconsistent pad: %v", err)
	}
}

func TestDeriveKeyProperties(t *testing.T) {
	k1, err := deriveKey(testSecret, "enc", 24)
	if err != nil || len(k1) != 24 {
		t.Fatalf("deriveKey: len=%d err=%v", len(k1), err)
	}
	k2, _ := deriveKey(testSecret, "mac", 24)
	if bytes.Equal(k1, k2) {
		t.Fatal("different labels yielded the same key")
	}
	k3, _ := deriveKey(testSecret, "enc", 24)
	if !bytes.Equal(k1, k3) {
		t.Fatal("key derivation not deterministic")
	}
	long, _ := deriveKey(testSecret, "enc", 100)
	if len(long) != 100 {
		t.Fatalf("long key: %d", len(long))
	}
	if !bytes.Equal(long[:24], k1) {
		t.Fatal("prefix property violated")
	}
	if _, err := deriveKey(nil, "enc", 8); err == nil {
		t.Fatal("empty secret accepted")
	}
}

func TestFixDESParity(t *testing.T) {
	key := []byte{0x00, 0x01, 0xfe, 0xff, 0x54, 0xa3}
	fixDESParity(key)
	for i, b := range key {
		ones := 0
		for j := 0; j < 8; j++ {
			if b&(1<<j) != 0 {
				ones++
			}
		}
		if ones%2 != 1 {
			t.Fatalf("byte %d (%#x) does not have odd parity", i, b)
		}
	}
}

// TestQuickEncryptDecrypt property-tests round-trips over random inputs.
func TestQuickEncryptDecrypt(t *testing.T) {
	for name, s := range allSuites(t) {
		s := s
		t.Run(name, func(t *testing.T) {
			f := func(pt []byte, seed uint64) bool {
				ct, err := s.Encrypt(pt, seed)
				if err != nil {
					return false
				}
				got, err := s.Decrypt(ct)
				if err != nil {
					return false
				}
				return bytes.Equal(got, pt)
			}
			cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(42))}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}
