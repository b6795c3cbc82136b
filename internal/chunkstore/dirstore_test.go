package chunkstore

import (
	"fmt"
	"testing"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// TestChunkStoreOnRealFilesystem runs the chunk store against a real
// directory (the production configuration), exercising segment file
// creation, checkpointing, cleaning (which removes files), reopen, and
// verification — the paths where DirStore semantics (sync, truncate,
// remove) differ from the in-memory store.
func TestChunkStoreOnRealFilesystem(t *testing.T) {
	dir := t.TempDir()
	store, err := platform.NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	ctr, err := platform.NewFileCounter(store, "counter")
	if err != nil {
		t.Fatalf("NewFileCounter: %v", err)
	}
	suite, err := sec.NewSuite("3des-sha1", []byte("realfs-chunk-secret-0123456789ab"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	cfg := Config{
		Store:       store,
		Counter:     ctr,
		Suite:       suite,
		SegmentSize: 8 << 10,
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var ids []ChunkID
	for i := 0; i < 100; i++ {
		cid, err := s.AllocateChunkID()
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		b := s.NewBatch()
		b.Write(cid, []byte(fmt.Sprintf("disk-record-%03d", i)))
		if err := s.Commit(b, true); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		ids = append(ids, cid)
	}
	// Churn to give the cleaner work, then compact (removes segment files
	// from the real directory).
	for round := 0; round < 10; round++ {
		b := s.NewBatch()
		for i := 0; i < 20; i++ {
			b.Write(ids[(round*20+i)%len(ids)], []byte(fmt.Sprintf("round-%d-%d", round, i)))
		}
		if err := s.Commit(b, true); err != nil {
			t.Fatalf("churn: %v", err)
		}
	}
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen from disk with a fresh counter handle.
	ctr2, err := platform.NewFileCounter(store, "counter")
	if err != nil {
		t.Fatalf("reopen counter: %v", err)
	}
	cfg.Counter = ctr2
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for i, cid := range ids {
		got, err := s2.Read(cid)
		if err != nil {
			t.Fatalf("Read(%d): %v", cid, err)
		}
		if len(got) == 0 {
			t.Fatalf("empty chunk %d (index %d)", cid, i)
		}
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
}
