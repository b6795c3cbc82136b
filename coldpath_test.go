package tdb_test

import (
	"math/rand"
	"testing"

	"tdb"
)

// TestColdLookupSegmentReads pins the I/O of the snapshot miss path in the
// shape of BenchmarkSnapshotLookupCold: songs pickling to twice the decode
// table's budget under a unique hash index, looked up by seeded uniform keys
// from one goroutine. After a warm-up long enough to fill the table and turn
// it over, the segment reads of a fixed run of lookups are a deterministic
// function of the table's replacement, so they are pinned exactly: a lookup
// whose hash bucket was evicted pays a second chunk read beside its record's.
// Size-aware replacement keeps the small buckets resident through the record
// churn; with the previous size-blind sweep the same run read 5238 times.
func TestColdLookupSegmentReads(t *testing.T) {
	const (
		warmup  = 2 * coldSongs
		lookups = 8192
		want    = 4422
	)
	db, byID, meter := openColdDB(t)
	rng := rand.New(rand.NewSource(1))
	run := func(n int) {
		for done := 0; done < n; done += 8 {
			txn := db.BeginReadOnly()
			h, err := txn.ReadCollection("songs", byID)
			if err != nil {
				t.Fatalf("ReadCollection: %v", err)
			}
			for i := 0; i < 8; i++ {
				id := rng.Int63n(coldSongs)
				if s, err := lookupSong(h, byID, tdb.IntKey(id)); err != nil || s.ID != id {
					t.Fatalf("lookup %d: %v, %v", id, s, err)
				}
			}
			if err := txn.Commit(false); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		}
	}
	run(warmup)
	before := meter.Stats().Snapshot()
	run(lookups)
	io := meter.Stats().Snapshot().Sub(before)
	t.Logf("%d cold lookups: %d segment reads (%.3f per lookup), %d bytes",
		lookups, io.ReadOps, float64(io.ReadOps)/lookups, io.BytesRead)
	if io.ReadOps != want {
		t.Errorf("%d cold lookups made %d segment reads, want %d", lookups, io.ReadOps, want)
	}
}
