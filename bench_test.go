// Benchmarks regenerating the paper's evaluation artifacts (§6–7) as
// testing.B benchmarks. Each table/figure has a bench family:
//
//   - Figure 8  (code footprint)    -> cmd/footprint (static accounting; no bench)
//   - Figure 9  (TPC-B sizes)       -> BenchmarkFig9Load
//   - Figure 10 (response times)    -> BenchmarkFig10/*
//   - Figure 11 (utilization sweep) -> BenchmarkFig11/*
//
// Response time = host CPU time (ns/op) + simulated disk time (reported as
// the custom metric disk-ms/txn, modeled on the paper's EIDE disk). The
// write volume per transaction (§7.4's 1100 vs 523 bytes) is reported as
// B/txn. Benches run at a reduced scale to stay quick; cmd/tdbbench -scale
// paper reproduces the full-scale numbers.
package tdb_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"tdb"
	"tdb/internal/platform"
	"tdb/internal/tpcb"
)

// benchScale keeps in-repo benches fast while preserving collection ratios.
var benchScale = tpcb.Scale{Accounts: 10000, Tellers: 100, Branches: 10}

// runTPCB loads a driver and then measures b.N transactions.
func runTPCB(b *testing.B, mk func(env *tpcb.BenchEnv) (tpcb.Driver, error)) {
	b.Helper()
	env := tpcb.NewBenchEnv()
	d, err := mk(env)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.Load(benchScale); err != nil {
		b.Fatal(err)
	}
	gen := tpcb.NewGenerator(1, benchScale)
	// Warm up out of the timer.
	for i := 0; i < 200; i++ {
		if err := d.Run(gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	env.Meter.Stats().Reset()
	diskStart := env.Disk.Elapsed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Run(gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	io := env.Meter.Stats().Snapshot()
	disk := env.Disk.Elapsed() - diskStart
	b.ReportMetric(float64(disk.Milliseconds())/float64(b.N), "disk-ms/txn")
	b.ReportMetric(float64(io.BytesWritten)/float64(b.N), "B/txn")
	b.ReportMetric(float64(env.Mem.TotalSize())/(1<<20), "db-MB")
}

// BenchmarkFig10 reproduces Figure 10: BerkeleyDB vs TDB vs TDB-S at the
// default 60% utilization.
func BenchmarkFig10(b *testing.B) {
	b.Run("BerkeleyDB", func(b *testing.B) {
		runTPCB(b, func(env *tpcb.BenchEnv) (tpcb.Driver, error) {
			return tpcb.NewBDBDriver(tpcb.BDBOptions{Store: env.Store()})
		})
	})
	b.Run("TDB", func(b *testing.B) {
		runTPCB(b, func(env *tpcb.BenchEnv) (tpcb.Driver, error) {
			return tpcb.NewTDBDriver(tpcb.TDBOptions{Store: env.Store(), MaxUtilization: 0.60})
		})
	})
	b.Run("TDB-S", func(b *testing.B) {
		runTPCB(b, func(env *tpcb.BenchEnv) (tpcb.Driver, error) {
			return tpcb.NewTDBDriver(tpcb.TDBOptions{Store: env.Store(), Suite: "3des-sha1", MaxUtilization: 0.60})
		})
	})
}

// BenchmarkFig11 reproduces Figure 11's utilization sweep for TDB (response
// time and final database size; the db-MB metric is the right-hand panel).
func BenchmarkFig11(b *testing.B) {
	for _, util := range []float64{0.50, 0.60, 0.70, 0.80, 0.90} {
		util := util
		b.Run(fmt.Sprintf("util%.0f", util*100), func(b *testing.B) {
			runTPCB(b, func(env *tpcb.BenchEnv) (tpcb.Driver, error) {
				return tpcb.NewTDBDriver(tpcb.TDBOptions{Store: env.Store(), MaxUtilization: util})
			})
		})
	}
}

// BenchmarkFig9Load measures bulk-loading the Figure 9 schema (one op =
// one loaded row across the four collections, amortized).
func BenchmarkFig9Load(b *testing.B) {
	rows := benchScale.Accounts + benchScale.Tellers + benchScale.Branches
	for i := 0; i < b.N; i++ {
		d, err := tpcb.NewTDBDriver(tpcb.TDBOptions{
			Store:   platform.NewMemStore(),
			Counter: platform.NewMemCounter(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Load(benchScale); err != nil {
			b.Fatal(err)
		}
		d.Close()
	}
	b.ReportMetric(float64(rows), "rows/load")
}

// BenchmarkCryptoSuites is the suite ablation: the paper's 3DES/SHA-1
// against the faster AES-CTR/SHA-256 it anticipates (§7.3), plus the null
// suite.
func BenchmarkCryptoSuites(b *testing.B) {
	for _, suite := range []string{"null", "3des-sha1", "aes-ctr-gmac"} {
		suite := suite
		b.Run(suite, func(b *testing.B) {
			runTPCB(b, func(env *tpcb.BenchEnv) (tpcb.Driver, error) {
				return tpcb.NewTDBDriver(tpcb.TDBOptions{Store: env.Store(), Suite: suite, MaxUtilization: 0.60})
			})
		})
	}
}

// BenchmarkSnapshotLookupHot measures the cached snapshot read path in the
// shape of the repository benchmark's read-hot workload: one op is a
// snapshot transaction of eight exact-match lookups through a unique hash
// index, every object a decode-table hit. Run at -cpu 1,2 it shows the hit
// path's reader scaling (it takes no lock and writes no shared memory, so
// two readers should not slow each other) and its allocations per op.
func BenchmarkSnapshotLookupHot(b *testing.B) {
	db, byID, meter := openHotDB(b)
	var seeds atomic.Int64
	benchLookupTxns(b, db, byID, meter, func() func() int64 {
		id := seeds.Add(7919)
		return func() int64 {
			id = (id*31 + 17) % hotSongs
			return id
		}
	})
}

// coldSongs songs with coldTitle-byte titles pickle to just over 16 MiB,
// twice the decode table's 8 MiB budget, so most of
// BenchmarkSnapshotLookupCold's record opens miss it.
const (
	coldSongs = 16384
	coldTitle = 1 << 10
)

// openColdDB loads coldSongs songs under a unique hash index on a metered
// MemStore, 1024 to a transaction, and reads nothing back.
func openColdDB(tb testing.TB) (*tdb.DB, tdb.GenericIndexer, *platform.MeterStore) {
	tb.Helper()
	db, opts := openTestDB(tb)
	tb.Cleanup(func() { db.Close() })
	byID := songByID()
	txn := db.Begin()
	if _, err := txn.CreateCollection("songs", byID); err != nil {
		tb.Fatalf("CreateCollection: %v", err)
	}
	if err := txn.Commit(false); err != nil {
		tb.Fatalf("Commit: %v", err)
	}
	title := strings.Repeat("t", coldTitle)
	for start := 0; start < coldSongs; start += 1024 {
		txn := db.Begin()
		songs, err := txn.WriteCollection("songs", byID)
		if err != nil {
			tb.Fatalf("WriteCollection: %v", err)
		}
		for i := start; i < start+1024; i++ {
			if _, err := songs.Insert(&Song{ID: int64(i), Title: title, Plays: int64(i)}); err != nil {
				tb.Fatalf("Insert: %v", err)
			}
		}
		if err := txn.Commit(false); err != nil {
			tb.Fatalf("Commit: %v", err)
		}
	}
	return db, byID, opts.Store.(*platform.MeterStore)
}

// BenchmarkSnapshotLookupCold measures the snapshot miss path in the shape
// of the repository benchmark's read-cold workload: the same transactions
// with keys uniform over coldSongs, so most record opens miss the decode
// table and read, validate, decrypt and unpickle a chunk. Run at -cpu 1,2 it
// shows whether two readers' misses overlap or queue on a shared lock.
func BenchmarkSnapshotLookupCold(b *testing.B) {
	db, byID, meter := openColdDB(b)
	var seeds atomic.Int64
	benchLookupTxns(b, db, byID, meter, func() func() int64 {
		rng := rand.New(rand.NewSource(seeds.Add(7919)))
		return func() int64 { return rng.Int63n(coldSongs) }
	})
}

// benchLookupTxns runs the lookup benchmarks' op under RunParallel: a
// snapshot transaction of eight exact-match lookups, each goroutine drawing
// ids from its own generator made by newKeys. It reports the segment reads
// per op that meter counts: the miss path's I/O.
func benchLookupTxns(b *testing.B, db *tdb.DB, byID tdb.GenericIndexer, meter *platform.MeterStore, newKeys func() func() int64) {
	b.ReportAllocs()
	before := meter.Stats().Snapshot()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		next := newKeys()
		for pb.Next() {
			txn := db.BeginReadOnly()
			h, err := txn.ReadCollection("songs", byID)
			if err != nil {
				b.Error(err)
				return
			}
			for i := 0; i < 8; i++ {
				id := next()
				if s, err := lookupSong(h, byID, tdb.IntKey(id)); err != nil || s.ID != id {
					b.Errorf("lookup %d: %v, %v", id, s, err)
					return
				}
			}
			if err := txn.Commit(false); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(meter.Stats().Snapshot().Sub(before).ReadOps)/float64(b.N), "reads/op")
}
