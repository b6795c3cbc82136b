package chunkstore

import (
	"fmt"
	"testing"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Micro-benchmarks of the chunk store's primitive operations, including the
// single-object-chunk ablation the paper's §4.2.1 trade-off discussion
// implies: writing N objects as N small chunks versus one N-object chunk.

func benchStore(b *testing.B, suiteName string) (*Store, *platform.MemStore) {
	b.Helper()
	suite, err := sec.NewSuite(suiteName, []byte("bench-secret-0123456789abcdef012"))
	if err != nil {
		b.Fatal(err)
	}
	mem := platform.NewMemStore()
	s, err := Open(Config{
		Store:   mem,
		Counter: platform.NewMemCounter(),
		Suite:   suite,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s, mem
}

func BenchmarkChunkWriteDurable(b *testing.B) {
	for _, suiteName := range []string{"null", "3des-sha1", "aes-gcm"} {
		b.Run(suiteName, func(b *testing.B) {
			s, _ := benchStore(b, suiteName)
			defer s.Close()
			cid, _ := s.AllocateChunkID()
			data := make([]byte, 100)
			b.SetBytes(100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := s.NewBatch()
				batch.Write(cid, data)
				if err := s.Commit(batch, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChunkRead(b *testing.B) {
	for _, suiteName := range []string{"null", "3des-sha1"} {
		b.Run(suiteName, func(b *testing.B) {
			s, _ := benchStore(b, suiteName)
			defer s.Close()
			var ids []ChunkID
			for i := 0; i < 1000; i++ {
				cid, _ := s.AllocateChunkID()
				batch := s.NewBatch()
				batch.Write(cid, make([]byte, 100))
				if err := s.Commit(batch, true); err != nil {
					b.Fatal(err)
				}
				ids = append(ids, cid)
			}
			b.SetBytes(100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Read(ids[i%len(ids)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadBatchWarm times a warm batch read of 64 adjacent 1 KiB
// chunks through VisitBatch, the path a scan's prefetch window takes: one
// coalesced segment read into a pooled buffer, then each record opened
// against its Merkle leaf in the run's buffer and shown to a visitor. It
// reports ns per chunk and the batch's allocations.
func BenchmarkReadBatchWarm(b *testing.B) {
	for _, suiteName := range []string{"null", "aes-gcm"} {
		b.Run(suiteName, func(b *testing.B) {
			s, _ := benchStore(b, suiteName)
			defer s.Close()
			const n = 64
			cids := make([]ChunkID, n)
			batch := s.NewBatch()
			for i := range cids {
				cids[i], _ = s.AllocateChunkID()
				batch.Write(cids[i], make([]byte, 1024))
			}
			if err := s.Commit(batch, true); err != nil {
				b.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(n * 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.VisitBatch(cids, func(_ int, _ []byte, err error) {
					if err != nil {
						b.Fatal(err)
					}
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/chunk")
		})
	}
}

// BenchmarkChunkGranularity is the single- vs multi-object chunk ablation
// (§4.2.1): committing 8 dirty 100-byte objects as 8 chunks versus packing
// them into one 800-byte chunk.
func BenchmarkChunkGranularity(b *testing.B) {
	const objects = 8
	b.Run("single-object-chunks", func(b *testing.B) {
		s, _ := benchStore(b, "3des-sha1")
		defer s.Close()
		var ids []ChunkID
		for i := 0; i < objects; i++ {
			cid, _ := s.AllocateChunkID()
			ids = append(ids, cid)
		}
		data := make([]byte, 100)
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
	b.Run("multi-object-chunk", func(b *testing.B) {
		s, _ := benchStore(b, "3des-sha1")
		defer s.Close()
		cid, _ := s.AllocateChunkID()
		data := make([]byte, 100*objects)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := s.NewBatch()
			batch.Write(cid, data)
			if err := s.Commit(batch, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The interesting comparison: only ONE of the packed objects is dirty,
	// but the whole container chunk must be rewritten.
	b.Run("multi-object-chunk-1-dirty", func(b *testing.B) {
		s, _ := benchStore(b, "3des-sha1")
		defer s.Close()
		cid, _ := s.AllocateChunkID()
		data := make([]byte, 100*objects)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data[i%len(data)]++ // one object changed
			batch := s.NewBatch()
			batch.Write(cid, data)
			if err := s.Commit(batch, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-object-chunks-1-dirty", func(b *testing.B) {
		s, _ := benchStore(b, "3des-sha1")
		defer s.Close()
		var ids []ChunkID
		for i := 0; i < objects; i++ {
			cid, _ := s.AllocateChunkID()
			batch := s.NewBatch()
			batch.Write(cid, make([]byte, 100))
			s.Commit(batch, true)
			ids = append(ids, cid)
		}
		data := make([]byte, 100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := s.NewBatch()
			batch.Write(ids[i%objects], data)
			if err := s.Commit(batch, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSegmentSize is a tuning ablation over the log segment size.
func BenchmarkSegmentSize(b *testing.B) {
	for _, segSize := range []int{64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", segSize>>10), func(b *testing.B) {
			suite, _ := sec.NewSuite("null", []byte("x-bench-secret"))
			s, err := Open(Config{
				Store:       platform.NewMemStore(),
				Suite:       suite,
				SegmentSize: segSize,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var ids []ChunkID
			for i := 0; i < 64; i++ {
				cid, _ := s.AllocateChunkID()
				ids = append(ids, cid)
			}
			data := make([]byte, 200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := s.NewBatch()
				batch.Write(ids[i%len(ids)], data)
				if err := s.Commit(batch, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures reopening a database with a residual log.
func BenchmarkRecovery(b *testing.B) {
	suite, _ := sec.NewSuite("3des-sha1", []byte("bench-secret-0123456789abcdef012"))
	mem := platform.NewMemStore()
	ctr := platform.NewMemCounter()
	cfg := Config{Store: mem, Counter: ctr, Suite: suite, DisableAutoCheckpoint: true}
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var ids []ChunkID
	for i := 0; i < 500; i++ {
		cid, _ := s.AllocateChunkID()
		batch := s.NewBatch()
		batch.Write(cid, make([]byte, 100))
		if err := s.Commit(batch, true); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, cid)
	}
	// Leave a residual log (no clean close).
	mem.Crash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s2.segs.closeAll()
		b.StartTimer()
	}
	_ = ids
}
