package sec

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// fuzzSuites are the suites the fuzz targets select among, by index. The
// retired aes-ctr-gmac, modelled by ctrGMACSuite, keeps index 1, which the
// checked-in corpus entries named after it select.
var fuzzSuites = []string{"3des-sha1", "aes-ctr-gmac", "null", "aes-gcm"}

// newFuzzSuites builds fuzzSuites under testSecret.
func newFuzzSuites(f *testing.F) []Suite {
	all := allSuites(f)
	suites := make([]Suite, len(fuzzSuites))
	for i, name := range fuzzSuites {
		suites[i] = all[name]
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
// ErrBadPadding. The seeds are real Seal outputs, each of which must first
// decrypt back to its plaintext.
func FuzzSuiteDecrypt(f *testing.F) {
	suites := newFuzzSuites(f)
	for i, s := range suites {
		for _, n := range seedLens {
			pt := fuzzPlaintext(n)
			ct, _, err := s.Seal(pt, uint64(n))
			if err != nil {
				f.Fatalf("%s: Seal(%d bytes): %v", s.Name(), n, err)
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

// digestAllocs bounds what one Digest with no room in dst may allocate,
// whatever the input's length: under the hashing suites the digest itself
// and a pooled hash state; under aes-gcm its copy, its counter-mode stream
// (two objects) and the digest.
func digestAllocs(s Suite) float64 {
	if s.Name() == "aes-gcm" {
		return 4
	}
	return 3
}

// openAllocs bounds what one Open of a record with OpenSlack spare bytes
// may allocate, whatever its length: under the hashing suites the digest, a
// pooled hash state, CBC's decrypter and its padding error, whose fmt
// state is pooled too, so that the race detector, which makes sync.Pool
// drop objects at random, can double the count; under aes-gcm nothing.
const openAllocs = 16

// FuzzChunkDigest holds every suite's leaf to its contract on arbitrary
// records, the bytes a read opens before any check has passed. Digest never
// panics, appends HashSize bytes to dst, leaves its input intact and
// allocates at most digestAllocs objects. Open of the record against its
// Digest succeeds exactly when Decrypt does, with the same plaintext, and
// allocates at most openAllocs objects (none under aes-gcm); flipping the
// byte at pos of the record, or any byte of the leaf, makes Open fail with
// ErrTampered and no plaintext. Check of the record against its Digest
// succeeds whenever Decrypt does and leaves the record intact, and fails
// with ErrTampered under the same flips. The seeds are real Seal outputs,
// for which every single-byte flip of header, ciphertext and leaf is
// checked first.
func FuzzChunkDigest(f *testing.F) {
	suites := newFuzzSuites(f)
	for i, s := range suites {
		for _, n := range seedLens {
			record, leaf, err := s.Seal(fuzzPlaintext(n), uint64(n))
			if err != nil {
				f.Fatalf("%s: Seal(%d bytes): %v", s.Name(), n, err)
			}
			if !HashEqual(s.Digest(nil, record), leaf) {
				f.Fatalf("%s: Digest of a %d-byte record is not its leaf", s.Name(), len(record))
			}
			for j := range record {
				rec := append([]byte(nil), record...)
				rec[j] ^= 0x80
				if got, err := s.Open(rec, leaf); !errors.Is(err, ErrTampered) || got != nil {
					f.Fatalf("%s: flipping byte %d of a %d-byte record: Open = %d bytes, %v", s.Name(), j, len(record), len(got), err)
				}
			}
			for j := range leaf {
				bad := append([]byte(nil), leaf...)
				bad[j] ^= 0x80
				if got, err := s.Open(append([]byte(nil), record...), bad); !errors.Is(err, ErrTampered) || got != nil {
					f.Fatalf("%s: flipping leaf byte %d: Open = %d bytes, %v", s.Name(), j, len(got), err)
				}
			}
			f.Add(uint8(i), uint16(len(record)/2), record)
		}
	}
	// A record shorter than an aes-gcm header, once past digestAllocs when
	// its Digest built Decrypt's error.
	f.Add(uint8(slices.Index(fuzzSuites, "aes-gcm")), uint16(512), []byte("\x00Z\x00\x00Z\x00Z"))
	f.Fuzz(func(t *testing.T, which uint8, pos uint16, data []byte) {
		s := suites[int(which)%len(suites)]
		in := append([]byte(nil), data...)
		var d []byte
		if allocs := testing.AllocsPerRun(1, func() { d = s.Digest(nil, in) }); allocs > digestAllocs(s) {
			t.Fatalf("%s: Digest of %d bytes allocates %.0f objects, want <= %.0f", s.Name(), len(data), allocs, digestAllocs(s))
		}
		if len(d) != s.HashSize() || !bytes.Equal(in, data) {
			t.Fatalf("%s: Digest of %d bytes returned %d bytes (want %d) or changed its input", s.Name(), len(data), len(d), s.HashSize())
		}
		if got := s.Digest([]byte("dst"), in); string(got[:3]) != "dst" || !HashEqual(got[3:], d) {
			t.Fatalf("%s: Digest of %d bytes does not append to dst", s.Name(), len(data))
		}

		want, derr := s.Decrypt(append([]byte(nil), data...))
		if err := s.Check(in, d); derr == nil && err != nil || !bytes.Equal(in, data) {
			t.Fatalf("%s: Check of %d bytes against their Digest: %v, input intact %v", s.Name(), len(data), err, bytes.Equal(in, data))
		}
		buf := make([]byte, len(data), len(data)+OpenSlack)
		var got []byte
		var err error
		allocs := testing.AllocsPerRun(1, func() {
			copy(buf, data)
			got, err = s.Open(buf, d)
		})
		switch {
		case allocs > openAllocs || s.Name() == "aes-gcm" && allocs != 0:
			t.Fatalf("%s: Open of %d bytes in place allocates %.0f objects", s.Name(), len(data), allocs)
		case derr != nil && (!errors.Is(err, ErrTampered) || got != nil):
			t.Fatalf("%s: Open of %d bytes Decrypt rejects (%v): %d bytes, %v", s.Name(), len(data), derr, len(got), err)
		case derr == nil && (err != nil || !bytes.Equal(got, want)):
			t.Fatalf("%s: Open of %d bytes against their Digest: %d bytes, %v; Decrypt gives %d", s.Name(), len(data), len(got), err, len(want))
		case derr != nil || len(data) == 0:
			return
		}
		in[int(pos)%len(in)] ^= 0x01
		if err := s.Check(in, d); !errors.Is(err, ErrTampered) {
			t.Fatalf("%s: flipping byte %d of %d: Check = %v", s.Name(), int(pos)%len(data), len(data), err)
		}
		copy(buf, in)
		if got, err := s.Open(buf, d); !errors.Is(err, ErrTampered) || got != nil {
			t.Fatalf("%s: flipping byte %d of %d: Open = %d bytes, %v", s.Name(), int(pos)%len(data), len(data), len(got), err)
		}
		copy(buf, data)
		d[int(pos)%len(d)] ^= 0x01
		if err := s.Check(data, d); !errors.Is(err, ErrTampered) {
			t.Fatalf("%s: flipping leaf byte %d: Check = %v", s.Name(), int(pos)%len(d), err)
		}
		if got, err := s.Open(buf, d); !errors.Is(err, ErrTampered) || got != nil {
			t.Fatalf("%s: flipping leaf byte %d: Open = %d bytes, %v", s.Name(), int(pos)%len(d), len(got), err)
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
