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
	"math"
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
// against the faster AES-GCM it anticipates (§7.3), plus the null suite.
func BenchmarkCryptoSuites(b *testing.B) {
	for _, suite := range []string{"null", "3des-sha1", "aes-gcm"} {
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

// openColdDB loads coldSongs songs, ids 0 to coldSongs−1, under the unique
// index by on a metered MemStore, 1024 to a transaction, and reads nothing
// back.
func openColdDB(tb testing.TB, by tdb.GenericIndexer) (*tdb.DB, *platform.MeterStore) {
	tb.Helper()
	db, opts := openTestDB(tb)
	tb.Cleanup(func() { db.Close() })
	txn := db.Begin()
	if _, err := txn.CreateCollection("songs", by); err != nil {
		tb.Fatalf("CreateCollection: %v", err)
	}
	if err := txn.Commit(false); err != nil {
		tb.Fatalf("Commit: %v", err)
	}
	title := strings.Repeat("t", coldTitle)
	for start := 0; start < coldSongs; start += 1024 {
		txn := db.Begin()
		songs, err := txn.WriteCollection("songs", by)
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
	return db, opts.Store.(*platform.MeterStore)
}

// BenchmarkSnapshotLookupCold measures the snapshot miss path in the shape
// of the repository benchmark's read-cold workload: the same transactions
// with keys uniform over coldSongs, so most record opens miss the decode
// table and read, validate, decrypt and unpickle a chunk. Run at -cpu 1,2 it
// shows whether two readers' misses overlap or queue on a shared lock.
func BenchmarkSnapshotLookupCold(b *testing.B) {
	byID := songByID()
	db, meter := openColdDB(b, byID)
	var seeds atomic.Int64
	benchLookupTxns(b, db, byID, meter, func() func() int64 {
		rng := rand.New(rand.NewSource(seeds.Add(7919)))
		return func() int64 { return rng.Int63n(coldSongs) }
	})
}

// BenchmarkSnapshotScan measures the prefetching snapshot scan in the shape
// of the repository benchmark's scan-vs-writer workload, without its
// writer: one op is a snapshot range scan of scanLen records through a
// B-tree over coldSongs records, twice the decode table's budget, at the
// default prefetch window, then the index query of the next scan's range.
// Every index page is cached before the first op. It reports ns per scanned
// record, allocations per scan, the scan's segment reads (scan-reads/op)
// and those of the query after it (query-reads/op). Two traffics:
//
//   - disjoint: starts step through the collection by the golden ratio, so
//     successive ranges never overlap and no scan reuses a record. A scan
//     that cached its records above the index pages would evict them, and
//     the next query would read them back.
//   - repeat: every scan reads the same range, small enough for the decode
//     table. The load's commits left the table full and nothing else runs,
//     so the range is served from memory only if a scan may evict to make
//     room for it; scan-reads/op shows whether it did.
func BenchmarkSnapshotScan(b *testing.B) {
	const scanLen = 4096
	bySeq := tdb.NewIndexer("seq", true, tdb.BTree, func(s *Song) tdb.IntKey { return tdb.IntKey(s.ID) })
	db, meter := openColdDB(b, bySeq)
	// query runs the range query of n ids from start in a snapshot
	// transaction that done ends.
	query := func(b *testing.B, start, n int64) (it *tdb.Iterator, done func()) {
		txn := db.BeginReadOnly()
		h, err := txn.ReadCollection("songs", bySeq)
		if err != nil {
			b.Fatalf("ReadCollection: %v", err)
		}
		if it, err = h.QueryRange(bySeq, tdb.IntKey(start), tdb.IntKey(start+n-1)); err != nil {
			b.Fatalf("QueryRange: %v", err)
		}
		return it, func() { it.Close(); txn.Abort() }
	}
	// Warm the index: the whole collection's query opens every page.
	it, done := query(b, 0, coldSongs)
	if it.Len() != coldSongs {
		b.Fatalf("the collection holds %d songs, want %d", it.Len(), coldSongs)
	}
	done()
	pos := 0.0
	disjoint := func() int64 {
		pos += 0.6180339887498949
		pos -= math.Floor(pos)
		return int64(pos * (coldSongs - scanLen + 1))
	}
	repeat := func() int64 { return coldSongs / 2 }
	for _, c := range []struct {
		name string
		next func() int64
	}{{"disjoint", disjoint}, {"repeat", repeat}} {
		b.Run(c.name, func(b *testing.B) {
			start := c.next()
			var scanReads, queryReads int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := meter.Stats().Snapshot()
				it, done := query(b, start, scanLen)
				want := start
				for it.Next() {
					s, err := tdb.ReadAs[*Song](it)
					if err != nil || s.ID != want {
						b.Fatalf("scan from %d: record %v, %v; want id %d", start, s, err, want)
					}
					want++
				}
				done()
				if want != start+scanLen {
					b.Fatalf("scan from %d returned %d records, want %d", start, want-start, scanLen)
				}
				scanReads += meter.Stats().Snapshot().Sub(before).ReadOps
				start = c.next()
				b.StopTimer()
				before = meter.Stats().Snapshot()
				_, done = query(b, start, scanLen)
				queryReads += meter.Stats().Snapshot().Sub(before).ReadOps
				done()
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*scanLen), "ns/record")
			b.ReportMetric(float64(scanReads)/float64(b.N), "scan-reads/op")
			b.ReportMetric(float64(queryReads)/float64(b.N), "query-reads/op")
		})
	}
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
