package tdb_test

import (
	"fmt"
	"sync"
	"testing"

	"tdb"
	"tdb/internal/platform"
)

// openScanDB builds a database tuned so scans exercise the prefetch
// machinery hard: small segments (many coalescing boundaries and a cleanable
// log) and a populated songs collection.
func openScanDB(t *testing.T, n int, opts tdb.Options) (*tdb.DB, tdb.Options) {
	t.Helper()
	reg := tdb.NewRegistry()
	reg.Register(songClass, func() tdb.Object { return &Song{} })
	opts.Registry = reg
	if opts.Store == nil {
		opts.Store = platform.NewMemStore()
	}
	if opts.Counter == nil {
		opts.Counter = platform.NewMemCounter()
	}
	opts.Secret = []byte("scan-prefetch-test-secret-012345")
	db, err := tdb.Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	txn := db.Begin()
	songs, err := txn.CreateCollection("songs", songByID())
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := songs.Insert(&Song{ID: int64(i + 1), Title: fmt.Sprintf("song-%04d", i+1), Plays: int64(i)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return db, opts
}

// reopen closes db and reopens it over the same store, so every cache —
// decoded objects and map nodes — starts cold and scans must pull from the
// chunk store.
func reopen(t *testing.T, db *tdb.DB, opts tdb.Options) *tdb.DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatalf("Close for reopen: %v", err)
	}
	db2, err := tdb.Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return db2
}

// scanAll scans the whole collection with the given prefetch window and
// checks every object dereferences to the expected song. onStep, when
// non-nil, runs after each dereference (for interleaving maintenance).
func scanAll(t *testing.T, db *tdb.DB, window int, onStep func(i int)) int {
	return scanAllTxn(t, db, true, window, onStep)
}

func scanAllTxn(t *testing.T, db *tdb.DB, snapshot bool, window int, onStep func(i int)) int {
	t.Helper()
	txn := db.BeginReadOnly()
	if !snapshot {
		txn = db.Begin()
	}
	defer txn.Abort()
	h, err := txn.ReadCollection("songs")
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	it, err := h.Query(songByID())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer it.Close()
	it.SetPrefetch(window)
	seen := make(map[int64]bool)
	i := 0
	for it.Next() {
		s, err := tdb.ReadAs[*Song](it)
		if err != nil {
			t.Fatalf("ReadAs at %d: %v", i, err)
		}
		if s.Title != fmt.Sprintf("song-%04d", s.ID) || seen[s.ID] {
			t.Fatalf("scan returned wrong or duplicate object: %+v", s)
		}
		seen[s.ID] = true
		if onStep != nil {
			onStep(i)
		}
		i++
	}
	return i
}

// TestScanPrefetchWindows runs the same cold full-collection scan, snapshot
// and 2PL, at window 0 (prefetch disabled — the pre-pipeline behavior), 1,
// 32 and one covering the whole result set. Every window must return the
// identical, complete result set, and the scan's I/O is pinned exactly: the
// iterator refills its window on its own goroutine only when the cursor
// reaches the frontier, so the batches, their coalescing and the segment
// reads they cost are a deterministic function of the window.
func TestScanPrefetchWindows(t *testing.T) {
	const n = 200
	meter := platform.NewMeterStore(platform.NewMemStore())
	db, opts := openScanDB(t, n, tdb.Options{SegmentSize: 8 << 10, Store: meter})
	defer func() { db.Close() }()

	// Verify pages the whole map in and caches no object, so each scan
	// below starts with every record cold and differs from the others only
	// in its window. Window 0 pays a segment read per record on top of the
	// catalog and index pages; a window covering the whole result set
	// coalesces the records and leaves no point read per record, which is
	// the decode table answering the scan's opens.
	want := []struct {
		window                        int
		readOps, bytesRead, coalesced int64
	}{
		{0, 236, 20810, 0},
		{1, 236, 20810, 0},
		{32, 225, 20810, 11},
		{n, 64, 20810, 22},
	}
	for _, snapshot := range []bool{true, false} {
		for _, w := range want {
			db = reopen(t, db, opts)
			if err := db.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			before, coalescedBefore := meter.Stats().Snapshot(), db.Stats().CoalescedReads
			if got := scanAllTxn(t, db, snapshot, w.window, nil); got != n {
				t.Fatalf("snapshot=%v window %d: scanned %d objects, want %d", snapshot, w.window, got, n)
			}
			io := meter.Stats().Snapshot().Sub(before)
			coalesced := db.Stats().CoalescedReads - coalescedBefore
			t.Logf("snapshot=%v window %d: %d segment reads, %d bytes, %d coalesced reads",
				snapshot, w.window, io.ReadOps, io.BytesRead, coalesced)
			if io.ReadOps != w.readOps || io.BytesRead != w.bytesRead || coalesced != w.coalesced {
				t.Errorf("snapshot=%v window %d: %d segment reads, %d bytes, %d coalesced reads; want %d, %d, %d",
					snapshot, w.window, io.ReadOps, io.BytesRead, coalesced, w.readOps, w.bytesRead, w.coalesced)
			}
		}
	}
}

// TestScanRacesCleanerRelocation interleaves cleaner passes (and periodic
// checkpoints) with a prefetching scan over a log full of garbage, so
// prefetched chunks get relocated between prefetch and dereference. The
// epoch revalidation must retry those — every object must still read back
// exact.
func TestScanRacesCleanerRelocation(t *testing.T) {
	const n = 240
	db, opts := openScanDB(t, n, tdb.Options{SegmentSize: 4 << 10, DisableAutoClean: true})
	defer func() { db.Close() }()

	// Rewrite a slice of the collection so early segments hold garbage and
	// the cleaner has live records (our scan targets) to evacuate.
	txn := db.Begin()
	h, err := txn.WriteCollection("songs", songByID())
	if err != nil {
		t.Fatalf("WriteCollection: %v", err)
	}
	it, err := h.Query(songByID())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for it.Next() {
		s, err := tdb.WriteAs[*Song](it)
		if err != nil {
			t.Fatalf("WriteAs: %v", err)
		}
		s.Plays++
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Reopen so the scan pulls cold from the chunk store, racing the cleaner
	// for real.
	db = reopen(t, db, opts)
	got := scanAll(t, db, 32, func(i int) {
		if i%24 == 0 {
			if err := db.Clean(); err != nil {
				t.Fatalf("Clean at %d: %v", i, err)
			}
		}
		if i%96 == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint at %d: %v", i, err)
			}
		}
	})
	if got != n {
		t.Fatalf("scanned %d objects racing the cleaner, want %d", got, n)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestScannersRaceGroupCommitWriter stresses the full pipeline under -race:
// eight prefetching scanners sweep the collection in snapshot transactions
// while a writer keeps mutating it through durable commits and the cleaner
// churns the log underneath. Scanners must always observe a
// consistent snapshot: every title matches its ID, no duplicates, no errors.
func TestScannersRaceGroupCommitWriter(t *testing.T) {
	const n = 120
	db, opts := openScanDB(t, n, tdb.Options{SegmentSize: 8 << 10})
	defer func() { db.Close() }()
	db = reopen(t, db, opts)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				w := []int{0, 1, 8, 32}[(seed+round)%4]
				txn := db.BeginReadOnly()
				h, err := txn.ReadCollection("songs")
				if err != nil {
					t.Errorf("scanner %d: ReadCollection: %v", seed, err)
					txn.Abort()
					return
				}
				it, err := h.Query(songByID())
				if err != nil {
					t.Errorf("scanner %d: Query: %v", seed, err)
					txn.Abort()
					return
				}
				it.SetPrefetch(w)
				count := 0
				for it.Next() {
					s, err := tdb.ReadAs[*Song](it)
					if err != nil {
						t.Errorf("scanner %d: ReadAs: %v", seed, err)
						break
					}
					if s.Title != fmt.Sprintf("song-%04d", s.ID) {
						t.Errorf("scanner %d: torn object %+v", seed, s)
						break
					}
					count++
				}
				it.Close()
				txn.Abort()
				if count != n {
					t.Errorf("scanner %d: scanned %d, want %d", seed, count, n)
					return
				}
			}
		}(r)
	}

	// The writer bumps play counts through writable iterators — group
	// commits publish new versions and retire old chunks while scans are in
	// flight.
	for round := 0; round < 25; round++ {
		txn := db.Begin()
		h, err := txn.WriteCollection("songs", songByID())
		if err != nil {
			t.Fatalf("writer: WriteCollection: %v", err)
		}
		it, err := h.Query(songByID())
		if err != nil {
			t.Fatalf("writer: Query: %v", err)
		}
		for it.Next() {
			s, err := tdb.WriteAs[*Song](it)
			if err != nil {
				t.Fatalf("writer: WriteAs: %v", err)
			}
			s.Plays++
		}
		if err := it.Close(); err != nil {
			t.Fatalf("writer: Close: %v", err)
		}
		if err := txn.Commit(true); err != nil {
			t.Fatalf("writer: Commit: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	if err := db.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
