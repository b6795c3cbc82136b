package chunkstore

import (
	"fmt"
	"sync/atomic"
	"testing"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Benchmarks for the two-stage commit pipeline and the lock-free read path.

func benchPipelineStore(b *testing.B, suiteName string) *Store {
	b.Helper()
	suite, err := sec.NewSuite(suiteName, []byte("bench-secret-0123456789abcdef012"))
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(Config{
		Store:   platform.NewMemStore(),
		Counter: platform.NewMemCounter(),
		Suite:   suite,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkCommitParallelCrypto measures durable commits of 8×4 KiB batches,
// both serially and with concurrent committers. Each commit prepares its
// batch (stage 1) on its own goroutine, so `-cpu 2` speeds up only the
// contended case, where one committer's crypto overlaps another's.
func BenchmarkCommitParallelCrypto(b *testing.B) {
	const batchOps, chunkSize = 8, 4 << 10
	for _, suiteName := range []string{"3des-sha1", "aes-gcm"} {
		b.Run(suiteName+"/serial", func(b *testing.B) {
			s := benchPipelineStore(b, suiteName)
			defer s.Close()
			var ids []ChunkID
			for i := 0; i < batchOps; i++ {
				cid, _ := s.AllocateChunkID()
				ids = append(ids, cid)
			}
			data := make([]byte, chunkSize)
			b.SetBytes(batchOps * chunkSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := s.NewBatch()
				for _, cid := range ids {
					batch.Write(cid, data)
				}
				if err := s.Commit(batch, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(suiteName+"/contended", func(b *testing.B) {
			s := benchPipelineStore(b, suiteName)
			defer s.Close()
			data := make([]byte, chunkSize)
			var next atomic.Uint64
			// Each concurrent committer writes its own chunk set; with
			// pipelining, one committer's crypto overlaps another's
			// serialized append phase.
			b.SetBytes(batchOps * chunkSize)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var ids []ChunkID
				for i := 0; i < batchOps; i++ {
					cid, err := s.AllocateChunkID()
					if err != nil {
						b.Error(err)
						return
					}
					ids = append(ids, cid)
				}
				for pb.Next() {
					batch := s.NewBatch()
					for _, cid := range ids {
						batch.Write(cid, data)
					}
					if err := s.Commit(batch, next.Add(1)%8 == 0); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkPrepareBatch times commit stage 1 alone (PrepareBatch: encrypt
// and digest every write payload) at the batch shapes the workloads
// produce: one to 1024 payloads of 110 B (a TPC-B transaction writes about
// nine, a bulk load about two thousand) and eight 4 KiB chunks.
func BenchmarkPrepareBatch(b *testing.B) {
	shapes := []struct{ n, size int }{{1, 110}, {9, 110}, {64, 110}, {1024, 110}, {8, 4 << 10}}
	for _, suiteName := range []string{"aes-gcm", "3des-sha1"} {
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/%dx%dB", suiteName, sh.n, sh.size), func(b *testing.B) {
				s := benchPipelineStore(b, suiteName)
				defer s.Close()
				batch := s.NewBatch()
				for i := 0; i < sh.n; i++ {
					batch.Write(ChunkID(i+1), make([]byte, sh.size))
				}
				b.SetBytes(int64(sh.n * sh.size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.PrepareBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConcurrentRead measures parallel readers over a pre-written
// working set: every read validates and decrypts off the store mutex.
func BenchmarkConcurrentRead(b *testing.B) {
	const chunks, chunkSize = 512, 1 << 10
	for _, suiteName := range []string{"3des-sha1", "aes-gcm"} {
		b.Run(suiteName, func(b *testing.B) {
			s := benchPipelineStore(b, suiteName)
			defer s.Close()
			data := make([]byte, chunkSize)
			var ids []ChunkID
			for i := 0; i < chunks; i++ {
				data[0], data[1] = byte(i), byte(i>>8)
				cid, _ := s.AllocateChunkID()
				batch := s.NewBatch()
				batch.Write(cid, append([]byte(nil), data...))
				if err := s.Commit(batch, false); err != nil {
					b.Fatal(err)
				}
				ids = append(ids, cid)
			}
			b.SetBytes(chunkSize)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := s.Read(ids[i%chunks]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}
