package tdb_test

import (
	"testing"

	"tdb"
)

// hotSongs is the size of the warm collection the hit-path gate and
// BenchmarkSnapshotLookupHot read: far below the caches, so after the warm
// pass every open is a decode-table hit.
const hotSongs = 1024

// openHotDB loads hotSongs songs under a unique hash index on a MemStore and
// reads each once through a snapshot transaction, so the catalog, the index
// pages and every record are cached when it returns.
func openHotDB(tb testing.TB) (*tdb.DB, tdb.GenericIndexer) {
	tb.Helper()
	db, _ := openTestDB(tb)
	tb.Cleanup(func() { db.Close() })
	byID := songByID()
	txn := db.Begin()
	songs, err := txn.CreateCollection("songs", byID)
	if err != nil {
		tb.Fatalf("CreateCollection: %v", err)
	}
	for i := 0; i < hotSongs; i++ {
		if _, err := songs.Insert(&Song{ID: int64(i), Title: "t", Plays: int64(i)}); err != nil {
			tb.Fatalf("Insert: %v", err)
		}
	}
	if err := txn.Commit(true); err != nil {
		tb.Fatalf("Commit: %v", err)
	}
	ro := db.BeginReadOnly()
	defer ro.Abort()
	h, err := ro.ReadCollection("songs", byID)
	if err != nil {
		tb.Fatalf("ReadCollection: %v", err)
	}
	for i := 0; i < hotSongs; i++ {
		if _, err := lookupSong(h, byID, tdb.IntKey(i)); err != nil {
			tb.Fatalf("warm lookup %d: %v", i, err)
		}
	}
	return db, byID
}

// lookupSong is one exact-match read through the unique hash index:
// QueryExact, Next, ReadAs, Close.
func lookupSong(h *tdb.Collection, byID tdb.GenericIndexer, key tdb.Key) (*Song, error) {
	it, err := h.QueryExact(byID, key)
	if err != nil {
		return nil, err
	}
	if !it.Next() {
		it.Close()
		return nil, tdb.ErrNotFound
	}
	s, err := tdb.ReadAs[*Song](it)
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	return s, err
}

// TestSnapshotHitPathAllocations gates the deterministic cost of the cached
// snapshot read path. A hot lookup allocates its iterator and the encoded
// key and nothing else; a whole lookup transaction (begin, open the
// collection, eight lookups, commit) stays within thirty objects — it was
// sixty-nine when the memo was a fresh map, the query a pair of closures and
// the result a grown slice. Repeated opens inside one transaction must keep
// returning the same instance.
func TestSnapshotHitPathAllocations(t *testing.T) {
	db, byID := openHotDB(t)
	keys := make([]tdb.Key, hotSongs) // boxed once: the caller's cost, not the lookup's
	for i := range keys {
		keys[i] = tdb.IntKey(i)
	}

	ro := db.BeginReadOnly()
	h, err := ro.ReadCollection("songs", byID)
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	first, err := lookupSong(h, byID, keys[500])
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	next := 0
	perLookup := testing.AllocsPerRun(200, func() {
		s, err := lookupSong(h, byID, keys[next%hotSongs])
		if err != nil || s.ID != int64(next%hotSongs) {
			t.Fatalf("lookup %d: %v, %v", next, s, err)
		}
		next++
	})
	if perLookup > 2 {
		t.Errorf("hot QueryExact+Next+ReadAs+Close allocates %.0f objects, want <= 2", perLookup)
	}
	again, err := lookupSong(h, byID, keys[500])
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if again != first {
		t.Errorf("second open of one object inside a transaction returned a different instance: %p then %p", first, again)
	}
	if err := ro.Commit(false); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	perTxn := testing.AllocsPerRun(200, func() {
		txn := db.BeginReadOnly()
		h, err := txn.ReadCollection("songs", byID)
		if err != nil {
			t.Fatalf("ReadCollection: %v", err)
		}
		for i := 0; i < 8; i++ {
			if _, err := lookupSong(h, byID, tdb.IntKey(300+next%700)); err != nil {
				t.Fatalf("lookup: %v", err)
			}
			next += 97
		}
		if err := txn.Commit(false); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	})
	if perTxn > 30 {
		t.Errorf("a snapshot transaction of 8 hot lookups allocates %.0f objects, want <= 30", perTxn)
	}
	t.Logf("allocations: %.0f per hot lookup, %.0f per 8-lookup snapshot transaction", perLookup, perTxn)
}

// TestTwoPhaseHitPathAllocations gates the cost of a warm 2PL read-only
// open. The object is answered by the decode table, so an open costs only
// the transaction's own bookkeeping: the shared lock, its lock-table entry
// and the per-transaction record. Reopening an object the transaction
// already holds allocates nothing.
func TestTwoPhaseHitPathAllocations(t *testing.T) {
	db, byID := openHotDB(t)
	oids := make([]tdb.ObjectID, 8)
	txn := db.Begin()
	h, err := txn.ReadCollection("songs", byID)
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	for i := range oids {
		it, err := h.QueryExact(byID, tdb.IntKey(int64(100*i)))
		if err != nil || !it.Next() {
			t.Fatalf("QueryExact %d: %v", 100*i, err)
		}
		if oids[i], err = it.ID(); err != nil {
			t.Fatalf("ID: %v", err)
		}
		it.Close()
	}
	txn.Abort()

	perTxn := testing.AllocsPerRun(200, func() {
		txn := db.BeginObject()
		for _, oid := range oids {
			if _, err := txn.OpenReadonly(oid); err != nil {
				t.Fatalf("OpenReadonly: %v", err)
			}
		}
		txn.Abort()
	})
	txn2 := db.BeginObject()
	defer txn2.Abort()
	first, err := txn2.OpenReadonly(oids[0])
	if err != nil {
		t.Fatalf("OpenReadonly: %v", err)
	}
	reopen := testing.AllocsPerRun(200, func() {
		if got, err := txn2.OpenReadonly(oids[0]); err != nil || got != first {
			t.Fatalf("reopen: %p, %v", got, err)
		}
	})
	if perTxn > 40 {
		t.Errorf("a 2PL transaction of 8 warm read-only opens allocates %.0f objects, want <= 40", perTxn)
	}
	if reopen > 0 {
		t.Errorf("reopening an object the transaction holds allocates %.0f objects, want 0", reopen)
	}
	t.Logf("allocations: %.0f per 2PL transaction of 8 warm opens, %.0f per reopen", perTxn, reopen)
}
