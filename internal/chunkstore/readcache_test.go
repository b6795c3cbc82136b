package chunkstore

import (
	"bytes"
	"errors"
	"testing"
)

// The chunk store keeps no plaintext cache: decoded objects are cached a
// layer up, in the object store's decode table. These tests pin that a
// chunk read always reflects the latest commit and that the read-cache
// statistics stay zero.

func TestReadCacheCoherenceOnOverwrite(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()

	cid := allocWrite(t, s, []byte("v1"))
	if got, _ := s.Read(cid); !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("Read v1: %q", got)
	}
	writeChunk(t, s, cid, []byte("v2"))
	if got, _ := s.Read(cid); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("Read after overwrite: %q, want v2", got)
	}
}

func TestReadCacheCoherenceOnDealloc(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()

	cid := allocWrite(t, s, []byte("doomed"))
	if _, err := s.Read(cid); err != nil {
		t.Fatalf("Read: %v", err)
	}
	b := s.NewBatch()
	b.Deallocate(cid)
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit(dealloc): %v", err)
	}
	if _, err := s.Read(cid); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("Read after dealloc: %v, want ErrNotAllocated", err)
	}
}

func TestReadCacheDisabled(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()

	cid := allocWrite(t, s, []byte("plain"))
	for i := 0; i < 2; i++ {
		if got, err := s.Read(cid); err != nil || !bytes.Equal(got, []byte("plain")) {
			t.Fatalf("Read %d: %q, %v", i, got, err)
		}
	}
	st := s.Stats()
	if st.ReadCacheBytes != 0 || st.ReadCacheHits != 0 || st.ReadCacheMisses != 0 {
		t.Fatalf("absent read cache reports activity: %+v", st)
	}
}
