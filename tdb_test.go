package tdb_test

import (
	"errors"
	"testing"

	"tdb"
	"tdb/internal/platform"
)

// Song is the persistent class used by the public-API tests.
type Song struct {
	ID     int64
	Title  string
	Plays  int64
	Rating float64
}

const songClass tdb.ClassID = 9001

func (s *Song) ClassID() tdb.ClassID { return songClass }
func (s *Song) Pickle(p *tdb.Pickler) {
	p.Int64(s.ID)
	p.String(s.Title)
	p.Int64(s.Plays)
	p.Float64(s.Rating)
}
func (s *Song) Unpickle(u *tdb.Unpickler) error {
	s.ID = u.Int64()
	s.Title = u.String()
	s.Plays = u.Int64()
	s.Rating = u.Float64()
	return u.Err()
}

func songByID() tdb.GenericIndexer {
	return tdb.NewIndexer("id", true, tdb.HashTable,
		func(s *Song) tdb.IntKey { return tdb.IntKey(s.ID) })
}

func songByTitle() tdb.GenericIndexer {
	return tdb.NewIndexer("title", false, tdb.BTree,
		func(s *Song) tdb.StringKey { return tdb.StringKey(s.Title) })
}

func openTestDB(t testing.TB) (*tdb.DB, tdb.Options) {
	t.Helper()
	reg := tdb.NewRegistry()
	reg.Register(songClass, func() tdb.Object { return &Song{} })
	opts := tdb.Options{
		Store:    platform.NewMemStore(),
		Counter:  platform.NewMemCounter(),
		Secret:   []byte("public-api-test-secret-012345678"),
		Registry: reg,
	}
	db, err := tdb.Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db, opts
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db, _ := openTestDB(t)
	defer db.Close()

	txn := db.Begin()
	songs, err := txn.CreateCollection("songs", songByID(), songByTitle())
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	for i, title := range []string{"Blue Train", "Giant Steps", "Naima", "Alabama"} {
		if _, err := songs.Insert(&Song{ID: int64(i + 1), Title: title}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Range query over the string B-tree index.
	txn2 := db.Begin()
	defer txn2.Abort()
	h, _ := txn2.ReadCollection("songs")
	it, err := h.QueryRange(songByTitle(), tdb.StringKey("B"), tdb.StringKey("H"))
	if err != nil {
		t.Fatalf("QueryRange: %v", err)
	}
	var titles []string
	for it.Next() {
		s, err := tdb.ReadAs[*Song](it)
		if err != nil {
			t.Fatalf("ReadAs: %v", err)
		}
		titles = append(titles, s.Title)
	}
	it.Close()
	if len(titles) != 2 || titles[0] != "Blue Train" || titles[1] != "Giant Steps" {
		t.Fatalf("range titles: %v", titles)
	}
}

func TestPublicErrorsExposed(t *testing.T) {
	db, _ := openTestDB(t)
	defer db.Close()
	txn := db.Begin()
	if _, err := txn.ReadCollection("missing"); !errors.Is(err, tdb.ErrNoSuchCollection) {
		t.Fatalf("missing collection: %v", err)
	}
	songs, _ := txn.CreateCollection("songs", songByID())
	songs.Insert(&Song{ID: 1})
	if _, err := songs.Insert(&Song{ID: 1}); !errors.Is(err, tdb.ErrDuplicateKey) {
		t.Fatalf("duplicate: %v", err)
	}
	txn.Abort()
}

func TestRawObjectAPI(t *testing.T) {
	// The layered architecture lets applications use the object store
	// directly (a smaller "configuration", paper §6) — here via
	// BeginObject on a collection-free database.
	reg := tdb.NewRegistry()
	reg.Register(songClass, func() tdb.Object { return &Song{} })
	db, err := tdb.Open(tdb.Options{
		Store: platform.NewMemStore(), Counter: platform.NewMemCounter(),
		Secret: []byte("raw-object-api-secret-0123456789"), Registry: reg,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	ot := db.BeginObject()
	oid, err := ot.Insert(&Song{ID: 42, Title: "So What"})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := ot.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	ot2 := db.BeginObject()
	ref, err := tdb.OpenWritable[*Song](ot2, oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	ref.Deref().Plays++
	if err := ot2.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	ot3 := db.BeginObject()
	rref, err := tdb.OpenReadonly[*Song](ot3, oid)
	if err != nil || rref.Deref().Plays != 1 {
		t.Fatalf("read back: %v", err)
	}
	ot3.Abort()
	if rref.Valid() {
		t.Fatal("ref valid after abort")
	}
}

func TestTamperDetectionPublic(t *testing.T) {
	reg := tdb.NewRegistry()
	reg.Register(songClass, func() tdb.Object { return &Song{} })
	store := platform.NewMemStore()
	ctr := platform.NewMemCounter()
	opts := tdb.Options{Store: store, Counter: ctr,
		Secret: []byte("tamper-public-secret-0123456789a"), Registry: reg}
	db, err := tdb.Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	txn := db.Begin()
	songs, _ := txn.CreateCollection("songs", songByID())
	songs.Insert(&Song{ID: 1, Title: "irreplaceable"})
	txn.Commit(true)
	db.Close()

	saved := store.Snapshot()
	db, _ = tdb.Open(opts)
	txn = db.Begin()
	h, _ := txn.WriteCollection("songs", songByID())
	h.Insert(&Song{ID: 2})
	txn.Commit(true)
	db.Close()

	store.Restore(saved)
	if _, err := tdb.Open(opts); !errors.Is(err, tdb.ErrTampered) {
		t.Fatalf("replay through public API: %v", err)
	}
}

func TestGobConvenience(t *testing.T) {
	p := &tdb.Pickler{}
	if err := tdb.GobPickle(p, map[string]int{"a": 1}); err != nil {
		t.Fatalf("GobPickle: %v", err)
	}
	u := tdb.NewUnpicklerFor(p.Bytes())
	var m map[string]int
	if err := tdb.GobUnpickle(u, &m); err != nil {
		t.Fatalf("GobUnpickle: %v", err)
	}
	if m["a"] != 1 {
		t.Fatalf("round trip: %v", m)
	}
}
