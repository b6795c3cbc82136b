package core

import (
	"errors"
	"fmt"
	"testing"

	"tdb/internal/chunkstore"
	"tdb/internal/collection"
	"tdb/internal/objectstore"
	"tdb/internal/platform"
)

// Note is a minimal persistent class for engine tests.
type Note struct {
	ID   int64
	Text string
}

const noteClass objectstore.ClassID = 5001

func (n *Note) ClassID() objectstore.ClassID { return noteClass }
func (n *Note) Pickle(p *objectstore.Pickler) {
	p.Int64(n.ID)
	p.String(n.Text)
}
func (n *Note) Unpickle(u *objectstore.Unpickler) error {
	n.ID = u.Int64()
	n.Text = u.String()
	return u.Err()
}

func noteIx() collection.GenericIndexer {
	return collection.NewIndexer("id", true, collection.BTree,
		func(n *Note) collection.IntKey { return collection.IntKey(n.ID) })
}

func testReg() *objectstore.Registry {
	reg := objectstore.NewRegistry()
	reg.Register(noteClass, func() objectstore.Object { return &Note{} })
	return reg
}

func baseOptions(store platform.UntrustedStore, ctr platform.OneWayCounter) Options {
	return Options{
		Store:    store,
		Secret:   []byte("core-test-secret-0123456789abcde"),
		Counter:  ctr,
		Registry: testReg(),
	}
}

func addNote(t *testing.T, db *DB, id int64, text string) {
	t.Helper()
	txn := db.Begin()
	h, err := txn.WriteCollection("notes", noteIx())
	if err != nil {
		t.Fatalf("WriteCollection: %v", err)
	}
	if _, err := h.Insert(&Note{ID: id, Text: text}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func readNote(t *testing.T, db *DB, id int64) string {
	t.Helper()
	txn := db.Begin()
	defer txn.Abort()
	h, err := txn.ReadCollection("notes")
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	it, err := h.QueryExact(noteIx(), collection.IntKey(id))
	if err != nil {
		t.Fatalf("QueryExact: %v", err)
	}
	defer it.Close()
	if !it.Next() {
		t.Fatalf("note %d missing", id)
	}
	n, err := collection.ReadAs[*Note](it)
	if err != nil {
		t.Fatalf("ReadAs: %v", err)
	}
	return n.Text
}

func TestOpenCreateReopen(t *testing.T) {
	store := platform.NewMemStore()
	ctr := platform.NewMemCounter()
	db, err := Open(baseOptions(store, ctr))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	txn := db.Begin()
	if _, err := txn.CreateCollection("notes", noteIx()); err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	addNote(t, db, 1, "hello")
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := Open(baseOptions(store, ctr))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := readNote(t, db2, 1); got != "hello" {
		t.Fatalf("note: %q", got)
	}
	if err := db2.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestOpenOnDirectory(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Dir:      dir,
		Secret:   realFSSecret, // the counter defaults to a file in dir
		Registry: testReg(),
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	txn := db.Begin()
	if _, err := txn.CreateCollection("notes", noteIx()); err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	txn.Commit(true)
	addNote(t, db, 7, "on disk")
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := readNote(t, db2, 7); got != "on disk" {
		t.Fatalf("note: %q", got)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without store accepted")
	}
	if _, err := Open(Options{Store: platform.NewMemStore()}); err == nil {
		t.Fatal("Open without secret accepted")
	}
	if _, err := Open(Options{Store: platform.NewMemStore(), Secret: []byte("x"), Suite: "rot13"}); err == nil {
		t.Fatal("unknown suite accepted")
	}
	// Null suite needs no secret or counter.
	db, err := Open(Options{Store: platform.NewMemStore(), Suite: "null"})
	if err != nil {
		t.Fatalf("null suite open: %v", err)
	}
	db.Close()
}

func TestBackupRestoreThroughEngine(t *testing.T) {
	store := platform.NewMemStore()
	ctr := platform.NewMemCounter()
	archive := platform.NewMemArchive()
	opts := baseOptions(store, ctr)
	opts.Archive = archive
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	txn := db.Begin()
	txn.CreateCollection("notes", noteIx())
	txn.Commit(true)
	addNote(t, db, 1, "v1")
	if _, err := db.BackupFull(); err != nil {
		t.Fatalf("BackupFull: %v", err)
	}
	addNote(t, db, 2, "v2")
	info, err := db.BackupIncremental()
	if err != nil {
		t.Fatalf("BackupIncremental: %v", err)
	}
	if info.Full {
		t.Fatal("expected incremental")
	}
	db.Close()

	// Restore into a fresh store (fresh counter: a replacement device).
	restOpts := baseOptions(platform.NewMemStore(), platform.NewMemCounter())
	db2, err := Restore(restOpts, archive)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer db2.Close()
	if got := readNote(t, db2, 1); got != "v1" {
		t.Fatalf("restored note 1: %q", got)
	}
	if got := readNote(t, db2, 2); got != "v2" {
		t.Fatalf("restored note 2: %q", got)
	}
	if err := db2.Verify(); err != nil {
		t.Fatalf("Verify restored: %v", err)
	}
}

func TestRestoreRefusesNonEmptyTarget(t *testing.T) {
	store := platform.NewMemStore()
	ctr := platform.NewMemCounter()
	archive := platform.NewMemArchive()
	opts := baseOptions(store, ctr)
	opts.Archive = archive
	db, _ := Open(opts)
	txn := db.Begin()
	txn.CreateCollection("notes", noteIx())
	txn.Commit(true)
	db.BackupFull()
	db.Close()

	// The same (populated) store is not a valid restore target.
	if _, err := Restore(baseOptions(store, ctr), archive); err == nil {
		t.Fatal("restore into populated store accepted")
	}
}

func TestBackupWithoutArchiveFails(t *testing.T) {
	db, err := Open(baseOptions(platform.NewMemStore(), platform.NewMemCounter()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if _, err := db.BackupFull(); err == nil {
		t.Fatal("backup without archive accepted")
	}
	if _, err := db.BackupIncremental(); err == nil {
		t.Fatal("incremental without archive accepted")
	}
}

func TestTamperSurfacesThroughEngine(t *testing.T) {
	store := platform.NewMemStore()
	ctr := platform.NewMemCounter()
	db, _ := Open(baseOptions(store, ctr))
	txn := db.Begin()
	txn.CreateCollection("notes", noteIx())
	txn.Commit(true)
	addNote(t, db, 1, "precious")
	db.Close()

	saved := store.Snapshot()
	db, _ = Open(baseOptions(store, ctr))
	addNote(t, db, 2, "newer")
	db.Close()
	store.Restore(saved) // replay attack

	if _, err := Open(baseOptions(store, ctr)); !errors.Is(err, chunkstore.ErrTampered) {
		t.Fatalf("replayed database: %v", err)
	}
}

func TestMaintenanceEntryPoints(t *testing.T) {
	db, err := Open(baseOptions(platform.NewMemStore(), platform.NewMemCounter()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	txn := db.Begin()
	txn.CreateCollection("notes", noteIx())
	txn.Commit(true)
	for i := int64(0); i < 50; i++ {
		addNote(t, db, i, "bulk")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := db.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	st := db.Stats()
	if st.Chunks == 0 || st.DiskBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	// String reports the map-node budget the chunk store filled in.
	if got, want := db.String(), fmt.Sprintf("tdb(aes-gcm, cache %d)", 4<<20); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if db.Objects() == nil || db.Chunks() == nil || db.Collections() == nil {
		t.Fatal("layer accessors returned nil")
	}
	if db.BeginObject() == nil {
		t.Fatal("BeginObject returned nil")
	}
}

func TestReusedRegistryAcrossOpens(t *testing.T) {
	reg := testReg()
	store := platform.NewMemStore()
	ctr := platform.NewMemCounter()
	opts := Options{Store: store, Secret: []byte("s0123456789abcdefs0123456789abcd"), Counter: ctr, Registry: reg}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	db.Close()
	db2, err := Open(opts) // same Registry value: must not panic
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	db2.Close()
}
