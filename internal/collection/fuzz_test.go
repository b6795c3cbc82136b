package collection

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"tdb/internal/chunkstore"
	"tdb/internal/objectstore"
)

// collectionClasses lists the collection store's persistent classes; a fuzz
// input names one by its index.
var collectionClasses = []objectstore.ClassID{
	classCatalog, classCollection, classBTreeNode, classHashDir,
	classHashSegment, classHashBucket, classListNode,
}

// boundedAlloc runs decode and fails t if it allocated more than 64 KiB
// plus 64 bytes per input byte: a length or count field must never make
// the decoder allocate more than a small multiple of the bytes behind it.
func boundedAlloc(t *testing.T, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*n); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, want <= %d", n, got, limit)
	}
}

// realPickles builds a store holding every collection class — a catalog,
// two collections, a hash index grown past one segment, a B-tree with
// internal nodes and a list index of chained nodes — and returns the
// committed pickles of the collection classes, keyed by class, with the
// class header stripped as unpickleObject strips it.
func realPickles(tb testing.TB) map[objectstore.ClassID][][]byte {
	tb.Helper()
	s := newColEnv(tb).open(tb)
	defer s.ObjectStore().Close()
	ct := s.Begin()
	profile, err := ct.CreateCollection("profile", idIndexer(), countIndexer())
	if err != nil {
		tb.Fatalf("CreateCollection: %v", err)
	}
	audit, err := ct.CreateCollection("audit", NewIndexer("log", false, List, func(m *Meter) IntKey { return IntKey(m.ID) }))
	if err != nil {
		tb.Fatalf("CreateCollection: %v", err)
	}
	for i := 0; i < 300; i++ {
		if _, err := profile.Insert(&Meter{ID: int64(i), ViewCount: int64(i)}); err != nil {
			tb.Fatalf("Insert: %v", err)
		}
		if i%4 == 0 {
			if _, err := audit.Insert(&Meter{ID: int64(i)}); err != nil {
				tb.Fatalf("Insert: %v", err)
			}
		}
	}
	if err := ct.Commit(true); err != nil {
		tb.Fatalf("Commit: %v", err)
	}
	out := make(map[objectstore.ClassID][][]byte)
	chunks := s.ObjectStore().Chunks()
	for cid, misses := chunkstore.ChunkID(1), 0; misses < 64; cid++ {
		data, err := chunks.Read(cid)
		if err != nil {
			misses++
			continue
		}
		misses = 0
		if len(data) < 4 {
			continue
		}
		class := objectstore.ClassID(binary.BigEndian.Uint32(data))
		if len(out[class]) < 2 {
			out[class] = append(out[class], data[4:])
		}
	}
	for _, class := range collectionClasses {
		if out[class] == nil {
			tb.Fatalf("the seed store holds no object of class %#x", class)
		}
	}
	return out
}

// FuzzUnpickleCollectionClasses holds the collection classes' decoders —
// which run on every index page and catalog a miss reads, behind a valid
// MAC — to the contract every decoder of stored bytes keeps: an object or an
// error, with bounded allocation and never a panic. A decoded object pickles
// to bytes that decode to the same pickle. The seeds are real pickles of
// every class, and a short hash bucket and hash segment whose counts claim
// 2^20 entries: a decoder that pre-sizes by the count fails the bound.
func FuzzUnpickleCollectionClasses(f *testing.F) {
	pickles := realPickles(f)
	for i, class := range collectionClasses {
		for _, data := range pickles[class] {
			f.Add(uint8(i), data)
		}
	}
	count := binary.BigEndian.AppendUint32(nil, 1<<20)
	f.Add(uint8(5), append(append(make([]byte, 8), count...), make([]byte, 16)...)) // hash bucket: overflow, count, 16 bytes
	f.Add(uint8(4), append(count, make([]byte, 16)...))                             // hash segment: count, 16 bytes
	reg := objectstore.NewRegistry()
	RegisterClasses(reg)
	f.Fuzz(func(t *testing.T, index uint8, data []byte) {
		class := collectionClasses[int(index)%len(collectionClasses)]
		obj, err := reg.New(class)
		if err != nil {
			t.Fatalf("New(%#x): %v", class, err)
		}
		boundedAlloc(t, len(data), func() {
			u := objectstore.NewUnpickler(data)
			if err = obj.Unpickle(u); err == nil {
				err = u.Err()
			}
		})
		if err != nil {
			return
		}
		p := objectstore.NewPickler()
		obj.Pickle(p)
		again, _ := reg.New(class)
		if err := again.Unpickle(objectstore.NewUnpickler(p.Bytes())); err != nil {
			t.Fatalf("class %#x: a decoded object's pickle does not decode: %v", class, err)
		}
		q := objectstore.NewPickler()
		again.Pickle(q)
		if !bytes.Equal(p.Bytes(), q.Bytes()) {
			t.Fatalf("class %#x: a decoded object's pickle does not round-trip", class)
		}
	})
}
