package sec

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzSuites are the suites the fuzz targets select among, by index.
var fuzzSuites = []string{"3des-sha1", "aes-ctr-gmac", "null"}

// newFuzzSuites builds fuzzSuites under testSecret.
func newFuzzSuites(f *testing.F) []Suite {
	suites := make([]Suite, len(fuzzSuites))
	for i, name := range fuzzSuites {
		s, err := NewSuite(name, testSecret)
		if err != nil {
			f.Fatalf("NewSuite(%s): %v", name, err)
		}
		suites[i] = s
	}
	return suites
}

// fuzzPlaintext is the seed plaintext of n bytes.
func fuzzPlaintext(n int) []byte { return bytes.Repeat([]byte{byte(n), 0x5a}, n)[:n] }

// seedLens are the plaintext lengths of the seed ciphertexts.
var seedLens = []int{0, 1, 8, 17, 1024}

// guardLen is the width of the guard bands around a fuzzed ciphertext.
const guardLen = 16

// FuzzSuiteDecrypt holds every suite's in-place Decrypt to its contract on
// arbitrary bytes: it never panics, never writes outside the buffer it was
// given (the guard bytes on either side stay intact), and returns either a
// subslice of that buffer or an error wrapping ErrBadCiphertext or
// ErrBadPadding. The seeds are real Encrypt outputs, each of which must
// first decrypt back to its plaintext.
func FuzzSuiteDecrypt(f *testing.F) {
	suites := newFuzzSuites(f)
	for i, s := range suites {
		for _, n := range seedLens {
			pt := fuzzPlaintext(n)
			ct, err := s.Encrypt(pt, uint64(n))
			if err != nil {
				f.Fatalf("%s: Encrypt(%d bytes): %v", s.Name(), n, err)
			}
			f.Add(uint8(i), ct)
			got, err := s.Decrypt(append([]byte(nil), ct...))
			if err != nil || !bytes.Equal(got, pt) {
				f.Fatalf("%s: Decrypt(Encrypt(%d bytes)) = %d bytes, %v", s.Name(), n, len(got), err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		s := suites[int(which)%len(suites)]
		buf := make([]byte, guardLen+len(data)+guardLen)
		for i := range buf {
			buf[i] = 0xa5
		}
		in := buf[guardLen : guardLen+len(data) : guardLen+len(data)]
		copy(in, data)
		got, err := s.Decrypt(in)
		for i, b := range append(buf[:guardLen:guardLen], buf[guardLen+len(data):]...) {
			if b != 0xa5 {
				t.Fatalf("%s: Decrypt of %d bytes wrote guard byte %d", s.Name(), len(data), i)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrBadCiphertext) && !errors.Is(err, ErrBadPadding) {
				t.Fatalf("%s: Decrypt error %v wraps neither ErrBadCiphertext nor ErrBadPadding", s.Name(), err)
			}
			return
		}
		if !subslice(got, in) {
			t.Fatalf("%s: Decrypt of %d bytes returned %d bytes outside its input", s.Name(), len(data), len(got))
		}
	})
}

// digestAllocs bounds what one Digest with no room in dst may allocate:
// the digest itself, and for the hashing suites a pooled hash state.
const digestAllocs = 3

// FuzzChunkDigest holds every suite's chunk digest to its contract on
// arbitrary bytes, the ones a read digests before any check has passed:
// it never panics, appends HashSize bytes to dst, allocates at most
// digestAllocs objects (none into spare capacity under aes-ctr-gmac), and
// leaves its input intact. Flipping the byte at pos changes the digest of
// an input at least a header long; for the seeds, real Encrypt outputs,
// every single-byte flip of header and payload is checked first.
func FuzzChunkDigest(f *testing.F) {
	suites := newFuzzSuites(f)
	for i, s := range suites {
		for _, n := range seedLens {
			ct, err := s.Encrypt(fuzzPlaintext(n), uint64(n))
			if err != nil {
				f.Fatalf("%s: Encrypt(%d bytes): %v", s.Name(), n, err)
			}
			d := s.Digest(nil, ct)
			for j := range ct {
				ct[j] ^= 0x80
				if HashEqual(s.Digest(nil, ct), d) {
					f.Fatalf("%s: flipping byte %d of a %d-byte ciphertext leaves its digest unchanged", s.Name(), j, len(ct))
				}
				ct[j] ^= 0x80
			}
			f.Add(uint8(i), uint16(len(ct)/2), ct)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, pos uint16, data []byte) {
		s := suites[int(which)%len(suites)]
		in := append([]byte(nil), data...)
		var d []byte
		if allocs := testing.AllocsPerRun(1, func() { d = s.Digest(nil, in) }); allocs > digestAllocs {
			t.Fatalf("%s: Digest of %d bytes allocates %.0f objects, want <= %d", s.Name(), len(data), allocs, digestAllocs)
		}
		if len(d) != s.HashSize() || !bytes.Equal(in, data) {
			t.Fatalf("%s: Digest of %d bytes returned %d bytes (want %d) or changed its input", s.Name(), len(data), len(d), s.HashSize())
		}
		if got := s.Digest([]byte("dst"), in); string(got[:3]) != "dst" || !HashEqual(got[3:], d) {
			t.Fatalf("%s: Digest of %d bytes does not append to dst", s.Name(), len(data))
		}
		if s.Name() == "aes-ctr-gmac" {
			sum := make([]byte, 0, s.HashSize())
			if allocs := testing.AllocsPerRun(1, func() { s.Digest(sum, in) }); allocs != 0 {
				t.Fatalf("Digest of %d bytes into spare capacity allocates %.0f objects", len(data), allocs)
			}
			if len(in) < ctrHeaderSize {
				return
			}
		}
		if len(in) == 0 {
			return
		}
		in[int(pos)%len(in)] ^= 0x01
		if HashEqual(s.Digest(nil, in), d) {
			t.Fatalf("%s: flipping byte %d of %d leaves the digest unchanged", s.Name(), int(pos)%len(in), len(in))
		}
	})
}

// subslice reports whether sub shares in's backing array at or after in[0]
// and ends within len(in). An empty sub is trivially a subslice.
func subslice(sub, in []byte) bool {
	if len(sub) == 0 {
		return true
	}
	for off := 0; off+len(sub) <= len(in); off++ {
		if &in[off] == &sub[0] {
			return true
		}
	}
	return false
}
