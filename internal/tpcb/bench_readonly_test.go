package tpcb

import (
	"sync"
	"testing"

	"math/rand"

	"tdb/internal/platform"
)

// benchScale keeps the bench-smoke setup cheap while preserving the
// collection ratios.
var benchScale = Scale{Accounts: 1000, Tellers: 50, Branches: 5}

// newBenchDriver loads a small TDB instance on a memory store.
func newBenchDriver(b *testing.B) *TDBDriver {
	b.Helper()
	d, err := NewTDBDriver(TDBOptions{Store: platform.NewMemStore(), Suite: "aes-gcm"})
	if err != nil {
		b.Fatalf("NewTDBDriver: %v", err)
	}
	if err := d.Load(benchScale); err != nil {
		d.Close()
		b.Fatalf("Load: %v", err)
	}
	b.Cleanup(func() { d.Close() })
	return d
}

// runSnapshotReadBench drives b.N read-only snapshot transactions while one
// writer commits read-write TPC-B transactions concurrently — the MVCC
// regime the snapshot path exists for.
func runSnapshotReadBench(b *testing.B, pick func() Op) {
	d := newBenchDriver(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := NewGenerator(7, benchScale)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.Run(gen.Next()); err != nil {
				b.Errorf("writer: %v", err)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.RunReadOnly(pick()); err != nil {
			b.Fatalf("RunReadOnly: %v", err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkSnapshotReadHeavy is the uniform read-heavy TPC-B variant.
func BenchmarkSnapshotReadHeavy(b *testing.B) {
	gen := NewGenerator(42, benchScale)
	runSnapshotReadBench(b, gen.Next)
}

// BenchmarkSnapshotZipfianHotKey draws rows from a Zipf distribution, so
// the readers and the writer contend on the same hot keys and version
// chains actually accumulate on them.
func BenchmarkSnapshotZipfianHotKey(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	zAcc := rand.NewZipf(rng, 1.2, 1, uint64(benchScale.Accounts-1))
	zTel := rand.NewZipf(rng, 1.2, 1, uint64(benchScale.Tellers-1))
	zBr := rand.NewZipf(rng, 1.2, 1, uint64(benchScale.Branches-1))
	runSnapshotReadBench(b, func() Op {
		return Op{
			Account: int32(zAcc.Uint64()),
			Teller:  int32(zTel.Uint64()),
			Branch:  int32(zBr.Uint64()),
			Delta:   int64(rng.Intn(1999999) - 999999),
		}
	})
}
