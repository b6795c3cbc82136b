package sec

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var testSecret = []byte("0123456789abcdef0123456789abcdef")

func allSuites(t *testing.T) map[string]Suite {
	t.Helper()
	des3, err := NewDES3SHA1(testSecret)
	if err != nil {
		t.Fatalf("NewDES3SHA1: %v", err)
	}
	ctr, err := NewAESCTRGMAC(testSecret)
	if err != nil {
		t.Fatalf("NewAESCTRGMAC: %v", err)
	}
	return map[string]Suite{"3des-sha1": des3, "aes-ctr-gmac": ctr, "null": NewNull()}
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
				if len(ct) > n+s.Overhead(n) {
					t.Fatalf("ciphertext %d exceeds declared overhead %d for %d bytes", len(ct), s.Overhead(n), n)
				}
			}
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
	ctr := allSuites(t)["aes-ctr-gmac"]
	if got, err := ctr.Decrypt(make([]byte, ctrHeaderSize)); err != nil || len(got) != 0 {
		t.Fatalf("Decrypt of a bare header: %d bytes, %v", len(got), err)
	}
}

// TestCTRSuiteShape pins the byte accounting the default suite promises:
// every ciphertext is exactly the plaintext plus a 16-byte header, and
// hashes, chunk digests and MACs are 20 bytes, the sizes of the paper's
// SHA-1 suite.
func TestCTRSuiteShape(t *testing.T) {
	s := allSuites(t)["aes-ctr-gmac"]
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 100, 2500} {
		ct, err := s.Encrypt(make([]byte, n), uint64(n))
		if err != nil {
			t.Fatalf("Encrypt(%d bytes): %v", n, err)
		}
		if len(ct) != n+16 || s.Overhead(n) != 16 {
			t.Fatalf("%d-byte plaintext: ciphertext %d bytes, overhead %d; want %d and 16", n, len(ct), s.Overhead(n), n+16)
		}
	}
	if s.HashSize() != 20 || len(s.Hash([]byte("x"))) != 20 || s.MACSize() != 20 || len(s.MAC([]byte("x"))) != 20 || len(s.Digest(nil, []byte("x"))) != 20 {
		t.Fatalf("hash %d/%d, MAC %d/%d bytes; want 20", s.HashSize(), len(s.Hash([]byte("x"))), s.MACSize(), len(s.MAC([]byte("x"))))
	}
}

// TestCTRInstancesNeverShareAKeystream: two instances under one secret —
// two stores whose IV generations both start at 0 — encrypt the same seed
// differently (each draws its own salt), yet each decrypts the other's
// ciphertexts, since the header carries everything decryption needs.
func TestCTRInstancesNeverShareAKeystream(t *testing.T) {
	a, _ := NewAESCTRGMAC(testSecret)
	b, _ := NewAESCTRGMAC(testSecret)
	pt := []byte("same secret, same seed, two stores")
	ca, _ := a.Encrypt(pt, 7)
	cb, _ := b.Encrypt(pt, 7)
	if bytes.Equal(ca[ctrHeaderSize:], cb[ctrHeaderSize:]) {
		t.Fatal("two instances produced the same keystream for one seed")
	}
	for _, c := range []struct {
		s  Suite
		ct []byte
	}{{a, cb}, {b, ca}} {
		if got, err := c.s.Decrypt(c.ct); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("cross-instance Decrypt: %q, %v", got, err)
		}
	}
	if !HashEqual(a.MAC(pt), b.MAC(pt)) || !HashEqual(a.Hash(pt), b.Hash(pt)) || !HashEqual(a.Digest(nil, ca), b.Digest(nil, ca)) {
		t.Fatal("hash, MAC or digest depends on the instance, not only on the secret")
	}
}

// TestGMACDigest pins what the default suite's digest is: a GMAC tag
// zero-padded to 20 bytes, keyed apart from Hash and by the device secret,
// and constant for input shorter than the header, with a non-zero pad that
// equals no real digest. FuzzChunkDigest holds every suite's digest to the
// rest of its contract.
func TestGMACDigest(t *testing.T) {
	s := allSuites(t)["aes-ctr-gmac"]
	ct, _ := s.Encrypt(make([]byte, 1024), 9)
	d := s.Digest(nil, ct)
	if !bytes.Equal(d[gmacTagSize:], make([]byte, ctrDigestSize-gmacTagSize)) {
		t.Fatalf("digest pad %x, want zeros", d[gmacTagSize:])
	}
	if HashEqual(d, s.Hash(ct)) {
		t.Fatal("the chunk digest equals Hash")
	}
	other, _ := NewAESCTRGMAC([]byte("another-device-secret-0123456789"))
	if HashEqual(d, other.Digest(nil, ct)) {
		t.Fatal("the chunk digest does not depend on the device secret")
	}
	for n := 0; n < ctrHeaderSize; n++ {
		if got := s.Digest(nil, ct[:n]); !HashEqual(got, shortDigest[:]) {
			t.Fatalf("%d-byte input: digest %x, want %x", n, got, shortDigest)
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
			if len(m) != s.MACSize() {
				t.Fatalf("MAC size %d, declared %d", len(m), s.MACSize())
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
	for _, name := range []string{"3des-sha1", "aes-ctr-gmac", "null"} {
		s, err := NewSuite(name, testSecret)
		if err != nil {
			t.Fatalf("NewSuite(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("NewSuite(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := NewSuite("rot13", testSecret); err == nil {
		t.Fatal("unknown suite accepted")
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
