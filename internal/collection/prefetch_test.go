package collection

import (
	"testing"

	"tdb/internal/objectstore"
)

// meterByID is a unique B-tree index on the meter id, so a full scan opens
// a known set of index pages.
func meterByID() GenericIndexer {
	return NewIndexer("byid", true, BTree, func(m *Meter) IntKey { return IntKey(m.ID) })
}

// scanPages counts the B-tree pages a full scan of the named collection's
// first index opens: the inner nodes on the path to the leftmost leaf, then
// every leaf along the chain.
func scanPages(t *testing.T, s *Store, name string) int {
	t.Helper()
	ct := s.BeginReadOnly()
	defer ct.Abort()
	h, err := ct.ReadCollection(name)
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	open := func(oid objectstore.ObjectID) *btreeNode {
		n, err := openNode(ct.t, oid, false)
		if err != nil {
			t.Fatalf("openNode(%d): %v", oid, err)
		}
		return n
	}
	pages := 1
	n := open(h.col.Indexes[0].Root)
	for ; !n.Leaf; pages++ {
		n = open(n.Entries[0].oid)
	}
	for ; n.Next != objectstore.NilObject; pages++ {
		n = open(n.Next)
	}
	return pages
}

// TestSnapshotScanReusesSpareRoom runs a cold 200-record snapshot scan at
// window 32 after a reopen, with the decode table far from full. The scan
// memoizes its prefetched records and offers them to the table, which has
// room for all of them, so the scan adds every object it read: the catalog,
// the collection, the index pages and every record. A second snapshot scan
// then returns the first one's instances: it read and unpickled nothing.
// (A scan into a full table evicts nothing; see objectstore's
// TestSnapshotPrefetchEvictsNothing.)
func TestSnapshotScanReusesSpareRoom(t *testing.T) {
	const n, window = 200, 32
	e := newColEnv(t)
	s := e.open(t)
	ct := s.Begin()
	h, err := ct.CreateCollection("meters", meterByID())
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := h.Insert(&Meter{ID: int64(i)}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	pages := scanPages(t, s, "meters")
	if pages < 3 {
		t.Fatalf("the index has %d pages; the test needs an inner node and several leaves", pages)
	}
	s.ObjectStore().Close()

	s = e.open(t)
	defer s.ObjectStore().Close()
	// scan reads the whole collection in a snapshot transaction and returns
	// the records it opened.
	scan := func() []*Meter {
		ct := s.BeginReadOnly()
		defer ct.Abort()
		h, err := ct.ReadCollection("meters")
		if err != nil {
			t.Fatalf("ReadCollection: %v", err)
		}
		it, err := h.Query(meterByID())
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		defer it.Close()
		it.SetPrefetch(window)
		var got []*Meter
		for it.Next() {
			obj, err := it.Read()
			if err != nil || obj.(*Meter).ID != int64(len(got)) {
				t.Fatalf("record %d: %v, %v", len(got), obj, err)
			}
			got = append(got, obj.(*Meter))
		}
		if len(got) != n {
			t.Fatalf("scanned %d records, want %d", len(got), n)
		}
		return got
	}
	before := s.ObjectStore().Stats().CachedObjects
	first := scan()
	added := s.ObjectStore().Stats().CachedObjects - before
	t.Logf("%d index pages, %d objects added to the decode table", pages, added)
	if want := 2 + pages + n; added != want {
		t.Errorf("the scan added %d objects to the decode table, want %d (catalog, collection, %d index pages, %d records)", added, want, pages, n)
	}
	for i, m := range scan() {
		if m != first[i] {
			t.Fatalf("the second scan's record %d is a fresh decode, not the first scan's instance", i)
		}
	}
}
