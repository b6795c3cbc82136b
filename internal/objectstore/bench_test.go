package objectstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tdb/internal/chunkstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Micro-benchmarks of the object store, including the locking on/off
// ablation §4.2.3 mentions ("the application may even switch off locking to
// avoid the locking overhead in the absence of concurrent transactions").

func benchObjectStore(b *testing.B, disableLocking bool) *Store {
	b.Helper()
	suite, err := sec.NewSuite("null", []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:      platform.NewMemStore(),
		Suite:      suite,
		CacheBytes: 16 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	reg := testRegistry()
	s, err := Open(Config{
		Chunks:         cs,
		Registry:       reg,
		LockTimeout:    time.Second,
		DisableLocking: disableLocking,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTxnUpdate measures a full update transaction (open writable,
// mutate, durable commit) with locking on and off.
func BenchmarkTxnUpdate(b *testing.B) {
	for _, mode := range []struct {
		name    string
		nolocks bool
	}{{"locking", false}, {"no-locking", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s := benchObjectStore(b, mode.nolocks)
			defer s.Close()
			t0 := s.Begin()
			oid, err := t0.Insert(&Meter{ID: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := t0.Commit(true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn := s.Begin()
				ref, err := OpenWritable[*Meter](txn, oid)
				if err != nil {
					b.Fatal(err)
				}
				ref.Deref().ViewCount++
				if err := txn.Commit(true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCachedRead measures reading a cached object (the hot path:
// decrypted, validated, unpickled once, then served from the decode table).
func BenchmarkCachedRead(b *testing.B) {
	s := benchObjectStore(b, true)
	defer s.Close()
	t0 := s.Begin()
	oid, _ := t0.Insert(&Meter{ID: 1, ViewCount: 2})
	t0.Commit(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := s.Begin()
		ref, err := OpenReadonly[*Meter](txn, oid)
		if err != nil {
			b.Fatal(err)
		}
		if ref.Deref().ID != 1 {
			b.Fatal("wrong object")
		}
		txn.Abort()
	}
}

// benchParallelChunkConfig is the chunk-store configuration shared by the
// parallel-commit benchmark workers: the real AES/SHA-256 suite plus a
// one-way counter, so every durable commit pays the full §3.2.2 cost.
func benchParallelChunkConfig(store platform.UntrustedStore, suite sec.Suite, ctr platform.OneWayCounter, cacheBytes int64) chunkstore.Config {
	return chunkstore.Config{
		Store:      store,
		Suite:      suite,
		Counter:    ctr,
		CacheBytes: cacheBytes,
		// Cleaning and checkpointing are driven separately in the paper's
		// benchmarks (§7.3); with them off, the measurement isolates commit
		// cost instead of the cleaner's copy steps.
		SegmentSize:           4 << 20,
		DisableAutoClean:      true,
		DisableAutoCheckpoint: true,
	}
}

// benchBlob is a payload-heavy persistent class: commits of blobs are
// dominated by the suite's bulk crypto, the regime the paper's §7.3
// experiments measure.
type benchBlob struct {
	Payload []byte
}

const benchBlobClass ClassID = 9001

func (o *benchBlob) ClassID() ClassID { return benchBlobClass }
func (o *benchBlob) Pickle(p *Pickler) {
	p.BytesVal(o.Payload)
}
func (o *benchBlob) Unpickle(u *Unpickler) error {
	o.Payload = u.BytesVal()
	return u.Err()
}

// BenchmarkTxnCommitParallel measures durable commit throughput with
// concurrent committers on the AES/SHA-256 suite over a real on-disk store
// (so every durable commit pays a true fsync): each worker repeatedly
// rewrites its own 8 KiB object in a durable transaction. Contention is
// purely structural (the store mutexes, the log, the counter) — workers
// never touch each other's objects, so lock waits play no part. One
// committer shows the round of one; more show concurrent commits
// coalescing into shared log syncs (syncs/op falls below 1).
func BenchmarkTxnCommitParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("committers=%d", workers), func(b *testing.B) {
			benchCommitParallel(b, workers)
		})
	}
}

func benchCommitParallel(b *testing.B, workers int) {
	suite, err := sec.NewSuite("aes-gcm", []byte("bench-parallel-commit"))
	if err != nil {
		b.Fatal(err)
	}
	dir, err := platform.NewDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	store := platform.NewMeterStore(dir)
	ctr := platform.NewMemCounter()
	cs, err := chunkstore.Open(benchParallelChunkConfig(store, suite, ctr, 64<<20))
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register(benchBlobClass, func() Object { return &benchBlob{} })
	s, err := Open(Config{
		Chunks:      cs,
		Registry:    reg,
		LockTimeout: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	oids := make([]ObjectID, workers)
	seed := s.Begin()
	for w := range oids {
		oid, err := seed.Insert(&benchBlob{Payload: make([]byte, 8<<10)})
		if err != nil {
			b.Fatal(err)
		}
		oids[w] = oid
	}
	if err := seed.Commit(true); err != nil {
		b.Fatal(err)
	}

	b.SetBytes(8 << 10)
	before := store.Stats().Snapshot()
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := b.N / workers
			if w < b.N%workers {
				n++
			}
			for i := 0; i < n; i++ {
				txn := s.Begin()
				ref, err := OpenWritable[*benchBlob](txn, oids[w])
				if err != nil {
					errs[w] = err
					return
				}
				ref.Deref().Payload[i%(8<<10)]++
				if err := txn.Commit(true); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	delta := store.Stats().Snapshot().Sub(before)
	b.ReportMetric(float64(delta.SyncOps)/float64(b.N), "syncs/op")
	b.ReportMetric(float64(delta.WriteOps)/float64(b.N), "writeops/op")
	b.ReportMetric(float64(delta.BytesWritten)/float64(b.N), "writebytes/op")
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPickle measures the hand-rolled pickling path used by hot
// classes (vs. the gob convenience path).
func BenchmarkPickle(b *testing.B) {
	m := &Meter{ID: 7, ViewCount: 100, PrintCount: 3}
	b.Run("manual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := NewPickler()
			m.Pickle(p)
			if p.Len() == 0 {
				b.Fatal("empty")
			}
		}
	})
	g := &GobThing{Data: map[string]int{"views": 100, "prints": 3}}
	b.Run("gob", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := NewPickler()
			g.Pickle(p)
			if p.Len() == 0 {
				b.Fatal("empty")
			}
		}
	})
}
