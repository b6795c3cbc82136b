package core

import (
	"os"
	"path/filepath"
	"testing"

	"tdb/internal/platform"
)

// End-to-end tests on a real directory store: the development configuration
// tdbctl runs. The database and its file-emulated one-way counter live in
// the directory (DirStore + FileCounter); the device secret does not — it is
// handed to Open as bytes, the way tdbctl -secret-file reads it from a file
// kept outside the store.

// realFSSecret is the device secret of the real-directory tests.
var realFSSecret = []byte("realfs-device-secret-0123456789a")

func TestRealFSLifecycle(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Dir:      filepath.Join(dir, "db"),
		Secret:   realFSSecret,
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
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for i := int64(0); i < 200; i++ {
		addNote(t, db, i, "persisted")
	}
	if err := db.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen across "process restart".
	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := readNote(t, db2, 137); got != "persisted" {
		t.Fatalf("note 137: %q", got)
	}
	if err := db2.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	db2.Close()
}

func TestRealFSTamperDetection(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Dir:      filepath.Join(dir, "db"),
		Secret:   realFSSecret,
		Registry: testReg(),
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	txn := db.Begin()
	txn.CreateCollection("notes", noteIx())
	txn.Commit(true)
	addNote(t, db, 1, "original")
	db.Close()

	// Flip bytes across every segment file on disk; each flip must be
	// detected or be provably harmless (dead log bytes).
	entries, err := os.ReadDir(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	detections := 0
	for _, e := range entries {
		name := e.Name()
		if len(name) < 4 || name[:4] != "seg-" {
			continue
		}
		path := filepath.Join(dir, "db", name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 20; off < len(orig); off += len(orig)/5 + 1 {
			mod := append([]byte(nil), orig...)
			mod[off] ^= 0xff
			if err := os.WriteFile(path, mod, 0o600); err != nil {
				t.Fatal(err)
			}
			db, err := Open(opts)
			if err != nil {
				detections++
			} else {
				if err := db.Verify(); err != nil {
					detections++
				} else if got := readNote(t, db, 1); got != "original" {
					t.Fatalf("silent corruption at %s+%d: %q", name, off, got)
				}
				db.Close()
			}
			if err := os.WriteFile(path, orig, 0o600); err != nil {
				t.Fatal(err)
			}
		}
	}
	if detections == 0 {
		t.Fatal("no on-disk flip was detected")
	}
}

func TestRealFSBackupRoundTrip(t *testing.T) {
	dir := t.TempDir()
	archive, err := platform.NewDirArchive(filepath.Join(dir, "archive"))
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("realfs-backup-secret-0123456789a")
	opts := Options{
		Dir:      filepath.Join(dir, "db"),
		Secret:   secret,
		Registry: testReg(),
		Archive:  archive,
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	txn := db.Begin()
	txn.CreateCollection("notes", noteIx())
	txn.Commit(true)
	addNote(t, db, 1, "backed up")
	if _, err := db.BackupFull(); err != nil {
		t.Fatalf("BackupFull: %v", err)
	}
	addNote(t, db, 2, "incrementally")
	if _, err := db.BackupIncremental(); err != nil {
		t.Fatalf("BackupIncremental: %v", err)
	}
	db.Close()

	restored, err := Restore(Options{
		Dir:      filepath.Join(dir, "db-restored"),
		Secret:   secret,
		Registry: testReg(),
	}, archive)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer restored.Close()
	if got := readNote(t, restored, 1); got != "backed up" {
		t.Fatalf("note 1: %q", got)
	}
	if got := readNote(t, restored, 2); got != "incrementally" {
		t.Fatalf("note 2: %q", got)
	}
}
