package collection

import (
	"testing"
	"time"

	"tdb/internal/chunkstore"
	"tdb/internal/objectstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Index ablation benchmarks: the same point-query workload over hash and
// B-tree indexes (the choice §5.2.4 leaves to the application), plus index
// maintenance cost when a functional key changes vs when it does not.

func benchCollectionStore(b *testing.B) *Store {
	b.Helper()
	suite, err := sec.NewSuite("null", []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:      platform.NewMemStore(),
		Suite:      suite,
		CacheBytes: 32 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	reg := objectstore.NewRegistry()
	RegisterClasses(reg)
	reg.Register(meterClass, func() objectstore.Object { return &Meter{} })
	os, err := objectstore.Open(objectstore.Config{
		Chunks:         cs,
		Registry:       reg,
		LockTimeout:    time.Second,
		DisableLocking: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(os)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func loadMeters(b *testing.B, s *Store, ix GenericIndexer, n int) {
	b.Helper()
	ct := s.Begin()
	h, err := ct.CreateCollection("bench", ix)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := h.Insert(&Meter{ID: int64(i), ViewCount: int64(i % 97)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := ct.Commit(true); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkExactMatch(b *testing.B) {
	for _, kind := range []IndexKind{HashTable, BTree} {
		b.Run(kind.String(), func(b *testing.B) {
			s := benchCollectionStore(b)
			defer s.ObjectStore().Close()
			ix := NewIndexer("id", true, kind, func(m *Meter) IntKey { return IntKey(m.ID) })
			loadMeters(b, s, ix, 10000)
			ct := s.Begin()
			defer ct.Abort()
			h, err := ct.ReadCollection("bench", ix)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, err := h.QueryExact(ix, IntKey(int64(i%10000)))
				if err != nil {
					b.Fatal(err)
				}
				if !it.Next() {
					b.Fatal("missing row")
				}
				if _, err := it.Read(); err != nil {
					b.Fatal(err)
				}
				it.Close()
			}
		})
	}
}

func BenchmarkBTreeRangeScan(b *testing.B) {
	s := benchCollectionStore(b)
	defer s.ObjectStore().Close()
	ix := NewIndexer("id", true, BTree, func(m *Meter) IntKey { return IntKey(m.ID) })
	loadMeters(b, s, ix, 10000)
	ct := s.Begin()
	defer ct.Abort()
	h, _ := ct.ReadCollection("bench", ix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i % 9000)
		it, err := h.QueryRange(ix, IntKey(lo), IntKey(lo+99))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for it.Next() {
			n++
		}
		it.Close()
		if n != 100 {
			b.Fatalf("range returned %d rows", n)
		}
	}
}

// BenchmarkIteratorUpdate compares updates that leave indexed keys
// unchanged (no index writes thanks to the pre/post key-snapshot
// comparison, §5.2.3) against updates that move a key (remove + insert in
// the index).
func BenchmarkIteratorUpdate(b *testing.B) {
	run := func(b *testing.B, touchKey bool) {
		s := benchCollectionStore(b)
		defer s.ObjectStore().Close()
		idIx := NewIndexer("id", true, HashTable, func(m *Meter) IntKey { return IntKey(m.ID) })
		usageIx := NewIndexer("usage", false, BTree, func(m *Meter) IntKey { return IntKey(m.ViewCount) })
		ct := s.Begin()
		h, err := ct.CreateCollection("bench", idIx, usageIx)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			h.Insert(&Meter{ID: int64(i)})
		}
		if err := ct.Commit(true); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct := s.Begin()
			h, err := ct.WriteCollection("bench", idIx, usageIx)
			if err != nil {
				b.Fatal(err)
			}
			it, err := h.QueryExact(idIx, IntKey(int64(i%2000)))
			if err != nil {
				b.Fatal(err)
			}
			it.Next()
			m, err := WriteAs[*Meter](it)
			if err != nil {
				b.Fatal(err)
			}
			if touchKey {
				m.ViewCount++ // moves the usage key: index must be updated
			} else {
				m.PrintCount++ // unindexed field: snapshots compare equal
			}
			if err := it.Close(); err != nil {
				b.Fatal(err)
			}
			if err := ct.Commit(true); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("key-unchanged", func(b *testing.B) { run(b, false) })
	b.Run("key-moved", func(b *testing.B) { run(b, true) })
}

func BenchmarkInsert(b *testing.B) {
	for _, kind := range []IndexKind{HashTable, BTree, List} {
		b.Run(kind.String(), func(b *testing.B) {
			s := benchCollectionStore(b)
			defer s.ObjectStore().Close()
			ix := NewIndexer("id", false, kind, func(m *Meter) IntKey { return IntKey(m.ID) })
			ct := s.Begin()
			h, err := ct.CreateCollection("bench", ix)
			if err != nil {
				b.Fatal(err)
			}
			if err := ct.Commit(true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ct := s.Begin()
				h, err = ct.WriteCollection("bench", ix)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.Insert(&Meter{ID: int64(i)}); err != nil {
					b.Fatal(err)
				}
				if err := ct.Commit(true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
