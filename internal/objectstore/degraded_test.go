package objectstore

import (
	"bytes"
	"errors"
	"testing"

	"tdb/internal/chunkstore"
)

// rotObjectChunk corrupts one byte of the stored ciphertext backing oid's
// chunk. The ciphertext is captured through the snapshot API and located in
// the raw durable file bytes, so the test stays outside chunkstore
// internals.
func rotObjectChunk(t *testing.T, e *osEnv, cs *chunkstore.Store, oid ObjectID) {
	t.Helper()
	sn, err := cs.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	var ct []byte
	err = sn.ForEach(func(cid chunkstore.ChunkID, hash, ciphertext []byte) error {
		if cid == chunkstore.ChunkID(oid) {
			ct = append([]byte(nil), ciphertext...)
		}
		return nil
	})
	sn.Close()
	if err != nil {
		t.Fatalf("snapshot walk: %v", err)
	}
	if len(ct) == 0 {
		t.Fatalf("no ciphertext found for object %d", oid)
	}
	for name, data := range e.mem.Snapshot() {
		if i := bytes.Index(data, ct); i >= 0 {
			if err := e.mem.Corrupt(name, int64(i+len(ct)/2)); err != nil {
				t.Fatalf("Corrupt: %v", err)
			}
			return
		}
	}
	t.Fatalf("ciphertext of object %d not found in any stored file", oid)
}

func TestDegradedChunkSurfacesThroughObjectReads(t *testing.T) {
	// Bit rot under one object's chunk must degrade only that object:
	// opening it reports ErrDegraded (and ErrTampered), while the rest of
	// the database keeps working.
	e := newOSEnv(t)
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:      e.mem,
		Counter:    e.counter,
		Suite:      e.suite,
		CacheBytes: e.cacheBytes,
	})
	if err != nil {
		t.Fatalf("chunkstore.Open: %v", err)
	}
	cfg := e.cfg
	cfg.Chunks = cs
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("objectstore.Open: %v", err)
	}

	t1 := s.Begin()
	good, err := t1.Insert(&Meter{ID: 1, ViewCount: 10})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	bad, err := t1.Insert(&Meter{ID: 2, ViewCount: 20})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := t1.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Checkpoint so reopen's recovery replay starts after the record we are
	// about to rot (replay re-reads only the post-checkpoint log tail).
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	rotObjectChunk(t, e, cs, bad)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen with cold caches so the read must hit the rotten bytes.
	s2 := e.open(t)
	defer s2.Close()
	t2 := s2.Begin()
	defer t2.Abort()
	if _, err := OpenReadonly[*Meter](t2, bad); !errors.Is(err, chunkstore.ErrDegraded) {
		t.Fatalf("open of rotten object: got %v, want ErrDegraded", err)
	} else if !errors.Is(err, chunkstore.ErrTampered) {
		t.Fatalf("degraded open should still match ErrTampered: %v", err)
	}
	ref, err := OpenReadonly[*Meter](t2, good)
	if err != nil {
		t.Fatalf("open of intact object alongside a degraded one: %v", err)
	}
	if m := ref.Deref(); m.ID != 1 || m.ViewCount != 10 {
		t.Fatalf("intact object read back wrong: %+v", m)
	}
}
