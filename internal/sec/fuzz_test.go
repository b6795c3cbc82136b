package sec

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzSuites are the suites FuzzSuiteDecrypt selects among, by index.
var fuzzSuites = []string{"3des-sha1", "aes-ctr-sha256", "null"}

// guardLen is the width of the guard bands around a fuzzed ciphertext.
const guardLen = 16

// FuzzSuiteDecrypt holds every suite's in-place Decrypt to its contract on
// arbitrary bytes: it never panics, never writes outside the buffer it was
// given (the guard bytes on either side stay intact), and returns either a
// subslice of that buffer or an error wrapping ErrBadCiphertext or
// ErrBadPadding. The seeds are real Encrypt outputs, each of which must
// first decrypt back to its plaintext.
func FuzzSuiteDecrypt(f *testing.F) {
	suites := make([]Suite, len(fuzzSuites))
	for i, name := range fuzzSuites {
		s, err := NewSuite(name, testSecret)
		if err != nil {
			f.Fatalf("NewSuite(%s): %v", name, err)
		}
		suites[i] = s
	}
	for i, s := range suites {
		for _, n := range []int{0, 1, 8, 17, 1024} {
			pt := bytes.Repeat([]byte{byte(n), 0x5a}, n)[:n]
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
