package chunkstore

import (
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
// both serially and with concurrent committers. Commit preparation fans the
// batch's crypto out to one goroutine per P, so `-cpu 1,2` is the ablation:
// at -cpu 1 it runs inline on the committing goroutine (approximating the
// pre-pipeline commit path), at -cpu 2 across two workers.
func BenchmarkCommitParallelCrypto(b *testing.B) {
	const batchOps, chunkSize = 8, 4 << 10
	for _, suiteName := range []string{"3des-sha1", "aes-ctr-gmac"} {
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

// BenchmarkConcurrentRead measures parallel readers over a pre-written
// working set: every read validates and decrypts off the store mutex.
func BenchmarkConcurrentRead(b *testing.B) {
	const chunks, chunkSize = 512, 1 << 10
	for _, suiteName := range []string{"3des-sha1", "aes-ctr-gmac"} {
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
