package objectstore

import (
	"errors"
	"testing"
)

// Tests of 2PL opens over the decode table: read-only opens share its
// instance, writable opens and Remove work on a private copy, and publish
// re-seats a committed instance.

// commitMeter inserts m in its own transaction and returns its id.
func commitMeter(t *testing.T, s *Store, m *Meter) ObjectID {
	t.Helper()
	txn := s.Begin()
	oid, err := txn.Insert(m)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return oid
}

// sharedMeter opens oid read-only in a 2PL transaction and checks the open
// returned the decode table's instance.
func sharedMeter(t *testing.T, s *Store, oid ObjectID) *Meter {
	t.Helper()
	txn := s.Begin()
	defer txn.Abort()
	ref, err := OpenReadonly[*Meter](txn, oid)
	if err != nil {
		t.Fatalf("OpenReadonly: %v", err)
	}
	if got := s.versions.decoded.get(oid); got != Object(ref.Deref()) {
		t.Fatalf("2PL read-only open returned %p, decode table holds %p", ref.Deref(), got)
	}
	return ref.Deref()
}

// TestWritableOpenIsPrivate: a writer's uncommitted mutation is visible
// neither to a concurrent snapshot reader nor through the decode table.
func TestWritableOpenIsPrivate(t *testing.T) {
	s := newOSEnv(t).open(t)
	defer s.Close()
	oid := commitMeter(t, s, &Meter{ID: 1, ViewCount: 5})
	shared := sharedMeter(t, s, oid)

	w := s.Begin()
	wref, err := OpenWritable[*Meter](w, oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	if wref.Deref() == shared {
		t.Fatal("writable open returned the shared instance")
	}
	wref.Deref().ViewCount = 99

	ro := s.BeginReadOnly()
	rref, err := OpenReadonly[*Meter](ro, oid)
	if err != nil {
		t.Fatalf("snapshot open: %v", err)
	}
	if got := rref.Deref().ViewCount; got != 5 {
		t.Fatalf("snapshot reader sees uncommitted ViewCount %d, want 5", got)
	}
	if got := s.versions.decoded.get(oid).(*Meter).ViewCount; got != 5 || shared.ViewCount != 5 {
		t.Fatalf("decode table sees uncommitted ViewCount %d, want 5", got)
	}
	if err := w.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := rref.Deref().ViewCount; got != 5 {
		t.Fatalf("pinned snapshot's instance changed to %d at commit", got)
	}
	ro.Abort()
}

// TestAbortLeavesDecodeEntryCommitted: aborting a writable open leaves the
// decode table holding the committed state, and later opens get it.
func TestAbortLeavesDecodeEntryCommitted(t *testing.T) {
	s := newOSEnv(t).open(t)
	defer s.Close()
	oid := commitMeter(t, s, &Meter{ID: 1, ViewCount: 5})
	shared := sharedMeter(t, s, oid)

	w := s.Begin()
	wref, err := OpenWritable[*Meter](w, oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	wref.Deref().ViewCount = 99
	w.Abort()

	if got := s.versions.decoded.get(oid); got != Object(shared) || shared.ViewCount != 5 {
		t.Fatalf("after abort the decode table holds %+v, want the committed instance %p with ViewCount 5", got, shared)
	}
	if again := sharedMeter(t, s, oid); again != shared {
		t.Fatalf("2PL open after abort returned %p, want the committed instance %p", again, shared)
	}
}

// TestCommittedWriteIsReseated: with no snapshot pinned, publish puts the
// committing transaction's instance into the decode table, so the next 2PL
// open returns that very instance: no chunk read, no unpickle.
func TestCommittedWriteIsReseated(t *testing.T) {
	s := newOSEnv(t).open(t)
	defer s.Close()
	oid := commitMeter(t, s, &Meter{ID: 1, ViewCount: 5})

	w := s.Begin()
	wref, err := OpenWritable[*Meter](w, oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	committed := wref.Deref()
	committed.ViewCount = 6
	if err := w.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := sharedMeter(t, s, oid); got != committed || got.ViewCount != 6 {
		t.Fatalf("next 2PL open returned %p (ViewCount %d), want the committed instance %p", got, got.ViewCount, committed)
	}

	// With a snapshot pinned the chain survives publish, so nothing is
	// re-seated; the pinned reader keeps the pre-image.
	old := s.BeginReadOnly()
	w2 := s.Begin()
	w2ref, err := OpenWritable[*Meter](w2, oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	w2ref.Deref().ViewCount = 7
	if err := w2.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := s.versions.decoded.get(oid); got != nil {
		t.Fatalf("write published beside a live chain was re-seated: %+v", got)
	}
	oref, err := OpenReadonly[*Meter](old, oid)
	if err != nil || oref.Deref().ViewCount != 6 {
		t.Fatalf("pinned snapshot read: %v, %v; want ViewCount 6", oref.Deref(), err)
	}
	old.Abort()
}

// TestReadonlyThenWritableOpen: once a transaction opens an object writable,
// every later open of it in that transaction returns the private copy; the
// reference from the earlier read-only open does not see the writes.
func TestReadonlyThenWritableOpen(t *testing.T) {
	s := newOSEnv(t).open(t)
	defer s.Close()
	oid := commitMeter(t, s, &Meter{ID: 1, ViewCount: 5})

	txn := s.Begin()
	before, err := txn.OpenReadonly(oid)
	if err != nil {
		t.Fatalf("OpenReadonly: %v", err)
	}
	private, err := txn.OpenWritable(oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	if private == before {
		t.Fatal("writable open after a read-only one returned the shared instance")
	}
	private.(*Meter).ViewCount = 8
	for i, open := range []func(ObjectID) (Object, error){txn.OpenReadonly, txn.OpenWritable, txn.OpenReadonly} {
		if got, err := open(oid); err != nil || got != private {
			t.Fatalf("open %d after the writable open returned %p, %v; want the private copy %p", i, got, err, private)
		}
	}
	if got := before.(*Meter).ViewCount; got != 5 {
		t.Fatalf("earlier read-only reference sees ViewCount %d, want the committed 5", got)
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := sharedMeter(t, s, oid); got.ViewCount != 8 {
		t.Fatalf("committed ViewCount = %d, want 8", got.ViewCount)
	}
}

// TestDecodeTableCoherenceOnOverwrite: a rewrite committed while a snapshot
// pins the old state must not leave the old decode behind for 2PL opens.
func TestDecodeTableCoherenceOnOverwrite(t *testing.T) {
	s := newOSEnv(t).open(t)
	defer s.Close()
	oid := commitMeter(t, s, &Meter{ID: 1, ViewCount: 5})
	sharedMeter(t, s, oid)

	old := s.BeginReadOnly()
	w := s.Begin()
	wref, err := OpenWritable[*Meter](w, oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	wref.Deref().ViewCount = 6
	if err := w.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	r := s.Begin()
	rref, err := OpenReadonly[*Meter](r, oid)
	if err != nil || rref.Deref().ViewCount != 6 {
		t.Fatalf("2PL open after overwrite: %v, %v; want ViewCount 6", rref.Deref(), err)
	}
	r.Abort()
	old.Abort()
}

// TestDecodeTableCoherenceOnRemove: a committed removal must not leave a
// decode behind for either kind of open.
func TestDecodeTableCoherenceOnRemove(t *testing.T) {
	s := newOSEnv(t).open(t)
	defer s.Close()
	oid := commitMeter(t, s, &Meter{ID: 1, ViewCount: 5})
	sharedMeter(t, s, oid)

	w := s.Begin()
	if err := w.Remove(oid); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := w.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := s.versions.decoded.get(oid); got != nil {
		t.Fatalf("decode table still holds removed object: %+v", got)
	}
	r := s.Begin()
	if _, err := r.OpenReadonly(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("2PL open of removed object: %v, want ErrNotFound", err)
	}
	r.Abort()
	ro := s.BeginReadOnly()
	if _, err := ro.OpenReadonly(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot open of removed object: %v, want ErrNotFound", err)
	}
	ro.Abort()
}
