package objectstore

import "testing"

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
// of snapMemoSpillKeep: a map of at most that many entries is emptied and
// kept for the next transaction, a larger one is dropped.
func TestSnapMemoKeepsBoundedMap(t *testing.T) {
	for _, tc := range []struct {
		spilled int
		kept    bool
	}{{snapMemoSpillKeep, true}, {snapMemoSpillKeep + 1, false}} {
		m := new(snapMemo)
		for oid := range ObjectID(snapMemoInline + tc.spilled) {
			m.put(oid+1, nil)
		}
		if len(m.spill) != tc.spilled {
			t.Fatalf("memo spilled %d entries, want %d", len(m.spill), tc.spilled)
		}
		m.reset()
		if kept := m.spill != nil; kept != tc.kept || len(m.spill) != 0 || m.n != 0 {
			t.Fatalf("reset of a %d-entry map: kept %v with %d entries and %d inline, want kept %v, empty", tc.spilled, kept, len(m.spill), m.n, tc.kept)
		}
		if _, ok := m.get(snapMemoInline + 1); ok {
			t.Fatal("a reset memo still finds an object")
		}
	}
}
