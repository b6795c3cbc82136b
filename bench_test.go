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
			return tpcb.NewTDBDriver(tpcb.TDBOptions{Store: env.Store(), Secure: false, MaxUtilization: 0.60})
		})
	})
	b.Run("TDB-S", func(b *testing.B) {
		runTPCB(b, func(env *tpcb.BenchEnv) (tpcb.Driver, error) {
			return tpcb.NewTDBDriver(tpcb.TDBOptions{Store: env.Store(), Secure: true, MaxUtilization: 0.60})
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
				return tpcb.NewTDBDriver(tpcb.TDBOptions{Store: env.Store(), Secure: false, MaxUtilization: util})
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
// against the faster AES/SHA-256 it anticipates (§7.3), plus the null
// suite.
func BenchmarkCryptoSuites(b *testing.B) {
	for _, suite := range []string{"null", "3des-sha1", "aes-sha256"} {
		suite := suite
		b.Run(suite, func(b *testing.B) {
			runTPCB(b, func(env *tpcb.BenchEnv) (tpcb.Driver, error) {
				return tpcb.NewTDBDriverSuite(env.Store(), suite, 0.60)
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
	db, byID := openHotDB(b)
	var seeds atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := seeds.Add(7919)
		for pb.Next() {
			txn := db.BeginReadOnly()
			h, err := txn.ReadCollection("songs", byID)
			if err != nil {
				b.Error(err)
				return
			}
			for i := 0; i < 8; i++ {
				id = (id*31 + 17) % hotSongs
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
}
