package objectstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tdb/internal/chunkstore"
)

// TestSnapshotPrefetchMemoizesOnce pins where a snapshot prefetch batch
// lands and what Prefetch returns. An id the memo already holds is not read
// again and keeps its instance; an id listed twice is read once, unpickled
// per occurrence, memoized once and opened as one instance. The table has
// room, so the batch is offered to it as well: the memo's instance, at zero
// credit.
func TestSnapshotPrefetchMemoizesOnce(t *testing.T) {
	s := newOSEnv(t).open(t)
	defer s.Close()
	a := commitMeter(t, s, &Meter{ID: 1})
	b := commitMeter(t, s, &Meter{ID: 2})
	// publish re-seated both committed instances in the decode table; drop
	// them so only the transaction's memo can answer.
	s.versions.decodedRemove(a)
	s.versions.decodedRemove(b)

	ro := s.BeginReadOnly()
	defer ro.Abort()
	a1, err := ro.OpenReadonly(a)
	if err != nil {
		t.Fatalf("OpenReadonly(a): %v", err)
	}
	// The open's miss put a in the decode table as well: drop it, so the
	// prefetch below can skip a only because the memo holds it.
	s.versions.decodedRemove(a)

	before := s.chunks.Stats().PrefetchedChunks
	if got := ro.Prefetch([]ObjectID{b, a, b}); got != 2 {
		t.Fatalf("Prefetch(b, a, b) = %d, want 2: a is memoized already, b unpickled per occurrence", got)
	}
	if got := s.chunks.Stats().PrefetchedChunks - before; got != 1 {
		t.Fatalf("the prefetch read %d chunks, want 1 (b, once)", got)
	}
	for i := 0; i < 2; i++ {
		if got, err := ro.OpenReadonly(a); err != nil || got != a1 {
			t.Fatalf("open %d of a: %p, %v; want the memoized %p", i, got, err, a1)
		}
	}
	b1, err := ro.OpenReadonly(b)
	if err != nil || b1.(*Meter).ID != 2 {
		t.Fatalf("OpenReadonly(b): %v, %v", b1, err)
	}
	if b2, err := ro.OpenReadonly(b); err != nil || b2 != b1 {
		t.Fatalf("second open of b: %p, %v; want %p", b2, err, b1)
	}
	dt := &s.versions.decoded
	if got := dt.get(b); got != b1 {
		t.Fatalf("the decode table holds %p for b, want the memo's %p", got, b1)
	}
	if c := dt.credit[slotOf(dt, b)]; c != 0 {
		t.Fatalf("b was offered at credit %d, want 0", c)
	}
	if dt.get(a) != nil {
		t.Fatal("a prefetch that skipped a put it in the decode table")
	}
}

// TestSnapshotPrefetchEvictsNothing fills the decode table's budget with
// credited stand-ins, then prefetches eight objects. A snapshot transaction
// memoizes them and opens them from its memo, and the table is left exactly
// as it was: the offer found no room and evicted nothing. A 2PL prefetch of
// the same objects puts them, evicting its way in.
func TestSnapshotPrefetchEvictsNothing(t *testing.T) {
	s := newOSEnv(t).open(t)
	defer s.Close()
	ids := make([]ObjectID, 8)
	for i := range ids {
		ids[i] = commitMeter(t, s, &Meter{ID: int32(i)})
		s.versions.decodedRemove(ids[i])
	}
	vt := s.versions
	vt.decodedMu.Lock()
	filler := ObjectID(1 << 40) // ids no object has
	for ; vt.decoded.bytes+1024 <= decodedBudget; filler++ {
		vt.decoded.put(filler, &Meter{}, 1024)
	}
	vt.decoded.put(filler, &Meter{}, decodedBudget-vt.decoded.bytes)
	vt.decodedMu.Unlock()
	n, bytes := vt.decodedResidency()
	if bytes != decodedBudget {
		t.Fatalf("the stand-ins hold %d bytes, want the budget %d", bytes, decodedBudget)
	}

	ro := s.BeginReadOnly()
	if got := ro.Prefetch(ids); got != len(ids) {
		t.Fatalf("Prefetch = %d, want %d", got, len(ids))
	}
	for i, oid := range ids {
		obj, err := ro.OpenReadonly(oid)
		if err != nil || obj.(*Meter).ID != int32(i) {
			t.Fatalf("OpenReadonly(%d): %v, %v", oid, obj, err)
		}
	}
	ro.Abort()
	if gotN, gotBytes := vt.decodedResidency(); gotN != n || gotBytes != bytes {
		t.Fatalf("a snapshot scan into a full table left %d objects, %d bytes; want %d, %d", gotN, gotBytes, n, bytes)
	}
	for _, oid := range ids {
		if vt.decoded.get(oid) != nil {
			t.Fatalf("object %d entered a full table from a snapshot prefetch", oid)
		}
	}

	rw := s.Begin()
	defer rw.Abort()
	rw.Prefetch(ids)
	for _, oid := range ids {
		if vt.decoded.get(oid) == nil {
			t.Fatalf("a 2PL prefetch left object %d out of the decode table", oid)
		}
	}
}

// TestSnapMemoKeepsBoundedMap pins the recycled memo's map on both sides
// of snapMemoSpillKeep. A memo that spills moves its inline entries into
// the map, so a memo of n > snapMemoInline objects holds all n there and
// none inline. At reset, a map of at most snapMemoSpillKeep entries is
// emptied and kept for the next transaction, a larger one is dropped; the
// reset memo fills its array first again.
func TestSnapMemoKeepsBoundedMap(t *testing.T) {
	for _, tc := range []struct {
		objects int
		kept    bool
	}{{snapMemoSpillKeep, true}, {snapMemoSpillKeep + 1, false}} {
		m := new(snapMemo)
		for oid := range ObjectID(tc.objects) {
			m.put(oid+1, &Meter{ID: int32(oid + 1)})
		}
		if len(m.spill) != tc.objects || m.n != 0 {
			t.Fatalf("memo of %d objects holds %d in its map and %d inline, want all %d in the map", tc.objects, len(m.spill), m.n, tc.objects)
		}
		for _, oid := range []ObjectID{1, snapMemoInline, snapMemoInline + 1, ObjectID(tc.objects)} {
			if obj, ok := m.get(oid); !ok || obj.(*Meter).ID != int32(oid) {
				t.Fatalf("spilled memo lost object %d: %v, %v", oid, obj, ok)
			}
		}
		m.reset()
		if kept := m.spill != nil; kept != tc.kept || len(m.spill) != 0 || m.n != 0 {
			t.Fatalf("reset of a %d-entry map: kept %v with %d entries and %d inline, want kept %v, empty", tc.objects, kept, len(m.spill), m.n, tc.kept)
		}
		if _, ok := m.get(snapMemoInline + 1); ok {
			t.Fatal("a reset memo still finds an object")
		}
		m.put(1, &Meter{ID: 1})
		if obj, ok := m.get(1); m.n != 1 || len(m.spill) != 0 || !ok || obj.(*Meter).ID != 1 {
			t.Fatalf("a reset memo put its first object with %d inline and %d in the map, want 1 and 0", m.n, len(m.spill))
		}
	}
}

// blob is a test object of bytes and a string: an instance that kept a
// slice of the bytes it was unpickled from would change when the chunk
// store reused them.
type blob struct {
	Name string
	Data []byte
}

const blobClass ClassID = 1004

func (b *blob) ClassID() ClassID { return blobClass }
func (b *blob) Pickle(p *Pickler) {
	p.String(b.Name)
	p.BytesVal(b.Data)
}
func (b *blob) Unpickle(u *Unpickler) error {
	b.Name, b.Data = u.String(), u.BytesVal()
	return u.Err()
}

func blobState(i int) *blob {
	return &blob{Name: fmt.Sprintf("blob-%04d", i), Data: bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5a}, 300)}
}

// TestSnapshotPrefetchSurvivesBufferReuse scans 256 objects in windows of
// 32 through a snapshot transaction's Prefetch, whose batch reads unpickle
// each record from a buffer the chunk store lends and takes back. While the
// scan runs, two goroutines read the same chunks through VisitBatch over
// and over, refilling the store's pooled buffers. The objects the first
// window prefetched must stay equal to their committed state after the
// later windows and the other readers have reused those buffers, and after
// the transaction ends; under the race detector, an object still sharing a
// lent buffer would also race with the refills.
func TestSnapshotPrefetchSurvivesBufferReuse(t *testing.T) {
	e := newOSEnv(t)
	e.cfg.Registry.Register(blobClass, func() Object { return &blob{} })
	s := e.open(t)
	defer s.Close()
	const n, window = 256, 32
	ids := make([]ObjectID, n)
	cids := make([]chunkstore.ChunkID, n)
	for lo := 0; lo < n; lo += window {
		txn := s.Begin()
		for i := lo; i < lo+window; i++ {
			oid, err := txn.Insert(blobState(i))
			if err != nil {
				t.Fatalf("Insert: %v", err)
			}
			ids[i], cids[i] = oid, chunkstore.ChunkID(oid)
		}
		if err := txn.Commit(true); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	// publish seated the committed instances in the decode table; drop them
	// so the scan reads every record.
	for _, oid := range ids {
		s.versions.decodedRemove(oid)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for lo := 0; lo < n; lo += window {
					s.chunks.VisitBatch(cids[lo:lo+window], func(i int, data []byte, err error) {
						if err != nil || len(data) == 0 {
							t.Errorf("VisitBatch[%d]: %d bytes, %v", lo+i, len(data), err)
						}
					})
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	objs := make([]Object, n)
	check := func(upto int, when string) {
		t.Helper()
		for i, obj := range objs[:upto] {
			want := blobState(i)
			if got := obj.(*blob); got.Name != want.Name || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("%s: object %d is %q with %d bytes, want %q with %d", when, i, got.Name, len(got.Data), want.Name, len(want.Data))
			}
		}
	}
	ro := s.BeginReadOnly()
	for lo := 0; lo < n; lo += window {
		// Every object is read and unpickled: none is in the decode table.
		if got := ro.Prefetch(ids[lo : lo+window]); got != window {
			t.Fatalf("Prefetch of window %d = %d, want %d", lo/window, got, window)
		}
		for i := lo; i < lo+window; i++ {
			obj, err := ro.OpenReadonly(ids[i])
			if err != nil {
				t.Fatalf("OpenReadonly(%d): %v", ids[i], err)
			}
			objs[i] = obj
		}
		check(lo+window, fmt.Sprintf("after window %d", lo/window))
	}
	ro.Abort()
	for lo := 0; lo < n; lo += window {
		s.chunks.VisitBatch(cids[lo:lo+window], func(int, []byte, error) {})
	}
	check(n, "after the transaction ended")
}
