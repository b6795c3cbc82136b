package sec

import (
	"fmt"
	"testing"
)

// Benchmarks of the crypto primitives at DRM record size (~100 bytes, §7.1)
// and at map-node size (~2.5 KB). The paper reports that hashing and
// encryption add less than 10% of TDB-S's CPU time on a 733 MHz P3 (§7.4);
// these benches show the per-operation costs on the host, including how
// much faster the AES suite the paper anticipates is than 3DES.

func benchSuite(b *testing.B, name string) Suite {
	b.Helper()
	s, err := NewSuite(name, []byte("bench-secret-0123456789abcdef012"))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkEncrypt(b *testing.B) {
	for _, name := range []string{"3des-sha1", "aes-gcm", "null"} {
		for _, size := range []int{100, 2500} {
			b.Run(fmt.Sprintf("%s/%dB", name, size), func(b *testing.B) {
				s := benchSuite(b, name)
				pt := make([]byte, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Encrypt(pt, uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDecrypt decrypts a fresh copy of one ciphertext per iteration:
// Decrypt works in place, so decrypting one buffer twice would time the
// second pass on plaintext (and fail 3DES's padding check). The copy is
// part of the timed loop, as a read pays it in its segment read.
func BenchmarkDecrypt(b *testing.B) {
	for _, name := range []string{"3des-sha1", "aes-gcm"} {
		b.Run(name, func(b *testing.B) {
			s := benchSuite(b, name)
			ct, _ := s.Encrypt(make([]byte, 100), 1)
			buf := make([]byte, len(ct))
			b.SetBytes(100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, ct)
				if _, err := s.Decrypt(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeal times sealing a chunk record and its leaf, the per-chunk
// crypto of a commit, at DRM record size, at the 1 KiB chunks of the
// repository benchmark's workloads, and at map-node size.
func BenchmarkSeal(b *testing.B) {
	for _, name := range []string{"3des-sha1", "aes-gcm", "null"} {
		for _, size := range []int{100, 1024, 2500} {
			b.Run(fmt.Sprintf("%s/%dB", name, size), func(b *testing.B) {
				s := benchSuite(b, name)
				pt := make([]byte, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := s.Seal(pt, uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOpen times what a read pays per chunk record: authenticating it
// against its leaf and decrypting it in place, in a buffer with OpenSlack
// spare bytes. The copy of the record into the buffer each iteration is
// timed too, as a read pays it in its segment read.
func BenchmarkOpen(b *testing.B) {
	for _, name := range []string{"3des-sha1", "aes-gcm", "null"} {
		for _, size := range []int{100, 1024, 2500} {
			b.Run(fmt.Sprintf("%s/%dB", name, size), func(b *testing.B) {
				s := benchSuite(b, name)
				record, leaf, _ := s.Seal(make([]byte, size), 1)
				buf := make([]byte, len(record), len(record)+OpenSlack)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(buf, record)
					if _, err := s.Open(buf, leaf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDigest times recomputing a record's leaf from the record alone,
// as recovery's replay does, at DRM record size, at 1 KiB and at map-node
// size.
func BenchmarkDigest(b *testing.B) {
	for _, name := range []string{"3des-sha1", "aes-gcm", "null"} {
		for _, size := range []int{100, 1024, 2500} {
			b.Run(fmt.Sprintf("%s/%dB", name, size), func(b *testing.B) {
				s := benchSuite(b, name)
				ct, _ := s.Encrypt(make([]byte, size), 1)
				sum := make([]byte, 0, s.HashSize())
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Digest(sum, ct)
				}
			})
		}
	}
}

func BenchmarkHash(b *testing.B) {
	for _, name := range []string{"3des-sha1", "aes-gcm", "null"} {
		for _, size := range []int{100, 1024, 2500} {
			b.Run(fmt.Sprintf("%s/%dB", name, size), func(b *testing.B) {
				s := benchSuite(b, name)
				data := make([]byte, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Hash(data)
				}
			})
		}
	}
}

func BenchmarkMAC(b *testing.B) {
	s := benchSuite(b, "3des-sha1")
	data := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MAC(data)
	}
}
