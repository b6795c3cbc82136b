package objectstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotIsolation pins the tentpole guarantee deterministically: a
// read-only transaction begun before a commit sees the pre-commit value of
// EVERY object that commit touched — updates, removals, and the root — while
// a transaction begun after it sees the new state.
func TestSnapshotIsolation(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	const n = 8
	setup := s.Begin()
	oids := make([]ObjectID, n)
	for i := range oids {
		oid, err := setup.Insert(&Meter{ID: int32(i), ViewCount: 100})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		oids[i] = oid
	}
	profileID, err := setup.Insert(&Profile{Meters: oids})
	if err != nil {
		t.Fatalf("insert profile: %v", err)
	}
	if err := setup.SetRoot(profileID); err != nil {
		t.Fatalf("SetRoot: %v", err)
	}
	if err := setup.Commit(true); err != nil {
		t.Fatalf("setup commit: %v", err)
	}

	// Pin the snapshot, then overwrite the whole object graph.
	ro := s.BeginReadOnly()

	w := s.Begin()
	for _, oid := range oids[1:] {
		ref, err := OpenWritable[*Meter](w, oid)
		if err != nil {
			t.Fatalf("OpenWritable: %v", err)
		}
		ref.Deref().ViewCount = 999
	}
	if err := w.Remove(oids[0]); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	newRoot, err := w.Insert(&Profile{Meters: oids[1:]})
	if err != nil {
		t.Fatalf("insert new root: %v", err)
	}
	if err := w.SetRoot(newRoot); err != nil {
		t.Fatalf("SetRoot: %v", err)
	}
	if err := w.Commit(true); err != nil {
		t.Fatalf("writer commit: %v", err)
	}

	// The pinned snapshot: old root, old values, the removed object intact.
	if root, err := ro.Root(); err != nil || root != profileID {
		t.Fatalf("snapshot Root = %d, %v; want pre-commit root %d", root, err, profileID)
	}
	for i, oid := range oids {
		ref, err := OpenReadonly[*Meter](ro, oid)
		if err != nil {
			t.Fatalf("snapshot read of meter %d: %v", i, err)
		}
		if got := ref.Deref().ViewCount; got != 100 {
			t.Fatalf("snapshot meter %d ViewCount = %d, want pre-commit 100", i, got)
		}
	}

	// A snapshot begun after the commit sees the new state.
	ro2 := s.BeginReadOnly()
	if root, err := ro2.Root(); err != nil || root != newRoot {
		t.Fatalf("post-commit snapshot Root = %d, %v; want %d", root, err, newRoot)
	}
	if _, err := OpenReadonly[*Meter](ro2, oids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-commit snapshot read of removed object: %v, want ErrNotFound", err)
	}
	for _, oid := range oids[1:] {
		ref, err := OpenReadonly[*Meter](ro2, oid)
		if err != nil {
			t.Fatalf("post-commit snapshot read: %v", err)
		}
		if got := ref.Deref().ViewCount; got != 999 {
			t.Fatalf("post-commit snapshot ViewCount = %d, want 999", got)
		}
	}

	// Closing the pins releases the version history.
	if err := ro.Commit(false); err != nil {
		t.Fatalf("snapshot Commit: %v", err)
	}
	ro2.Abort()
	if st := s.Stats(); st.VersionChains != 0 {
		t.Fatalf("%d version chains survive with no snapshot pinned", st.VersionChains)
	}
}

// TestSnapshotReadsTakeNoLocks pins the lock-table invariant: snapshot reads
// add zero entries to the lock table and complete — with the pre-commit
// value — even while a writer holds exclusive locks on every object read,
// which would deadlock (ErrLockTimeout) a 2PL reader.
func TestSnapshotReadsTakeNoLocks(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	setup := s.Begin()
	oid, err := setup.Insert(&Meter{ID: 1, ViewCount: 7})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := setup.Commit(true); err != nil {
		t.Fatalf("setup commit: %v", err)
	}

	// A writer holds the exclusive lock across the whole read.
	w := s.Begin()
	wref, err := OpenWritable[*Meter](w, oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	wref.Deref().ViewCount = 1000
	lockedEntries := s.Stats().LockEntries
	if lockedEntries == 0 {
		t.Fatalf("writer holds no lock-table entry")
	}

	ro := s.BeginReadOnly()
	ref, err := OpenReadonly[*Meter](ro, oid)
	if err != nil {
		// Any error here — ErrLockTimeout above all — means the snapshot
		// read touched the lock table.
		t.Fatalf("snapshot read under exclusive lock: %v", err)
	}
	if got := ref.Deref().ViewCount; got != 7 {
		t.Fatalf("snapshot read = %d, want committed 7 (not the writer's uncommitted 1000)", got)
	}
	if got := s.Stats().LockEntries; got != lockedEntries {
		t.Fatalf("snapshot read changed the lock table: %d entries, want %d", got, lockedEntries)
	}
	if err := w.Commit(true); err != nil {
		t.Fatalf("writer commit: %v", err)
	}
	// The pin predates the commit, so the snapshot still reads 7.
	ref2, err := OpenReadonly[*Meter](ro, oid)
	if err != nil {
		t.Fatalf("snapshot re-read: %v", err)
	}
	if got := ref2.Deref().ViewCount; got != 7 {
		t.Fatalf("snapshot re-read = %d, want pinned 7", got)
	}
	if err := ro.Commit(false); err != nil {
		t.Fatalf("snapshot Commit: %v", err)
	}
	if st := s.Stats(); st.LockEntries != 0 {
		t.Fatalf("%d lock entries survive after all transactions ended", st.LockEntries)
	}
}

// TestReadOnlyTxnRejectsMutations pins the API contract: every mutating
// operation on a snapshot transaction fails with ErrReadOnlyTxn, and the
// transaction ends cleanly.
func TestReadOnlyTxnRejectsMutations(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	setup := s.Begin()
	oid, err := setup.Insert(&Meter{ID: 1})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := setup.Commit(true); err != nil {
		t.Fatalf("setup commit: %v", err)
	}

	ro := s.BeginReadOnly()
	if !ro.ReadOnly() || !ro.Active() {
		t.Fatalf("BeginReadOnly txn: ReadOnly=%v Active=%v", ro.ReadOnly(), ro.Active())
	}
	if _, err := ro.Insert(&Meter{ID: 2}); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("Insert in snapshot txn: %v, want ErrReadOnlyTxn", err)
	}
	if _, err := OpenWritable[*Meter](ro, oid); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("OpenWritable in snapshot txn: %v, want ErrReadOnlyTxn", err)
	}
	if err := ro.Remove(oid); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("Remove in snapshot txn: %v, want ErrReadOnlyTxn", err)
	}
	if err := ro.SetRoot(oid); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("SetRoot in snapshot txn: %v, want ErrReadOnlyTxn", err)
	}
	if err := ro.Commit(true); err != nil {
		t.Fatalf("snapshot Commit: %v", err)
	}
	if ro.Active() {
		t.Fatalf("snapshot txn still active after Commit")
	}
	if _, err := ro.OpenReadonly(oid); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("read after snapshot end: %v, want ErrTxnDone", err)
	}
}

// TestSnapshotPinsOnePointInHistory walks a chain of commits and checks each
// open snapshot keeps reading the exact state at its pin while later commits
// stack more versions on the same objects.
func TestSnapshotPinsOnePointInHistory(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	setup := s.Begin()
	a, err := setup.Insert(&Meter{ID: 1, ViewCount: 0})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	b, err := setup.Insert(&Meter{ID: 2, ViewCount: 100})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := setup.Commit(true); err != nil {
		t.Fatalf("setup commit: %v", err)
	}

	// Commit i moves one unit from b to a; every state keeps a+b == 100.
	const steps = 5
	snaps := make([]*Txn, 0, steps+1)
	snaps = append(snaps, s.BeginReadOnly())
	for i := 1; i <= steps; i++ {
		w := s.Begin()
		ra, err := OpenWritable[*Meter](w, a)
		if err != nil {
			t.Fatalf("step %d open a: %v", i, err)
		}
		rb, err := OpenWritable[*Meter](w, b)
		if err != nil {
			t.Fatalf("step %d open b: %v", i, err)
		}
		ra.Deref().ViewCount++
		rb.Deref().ViewCount--
		if err := w.Commit(i%2 == 0); err != nil {
			t.Fatalf("step %d commit: %v", i, err)
		}
		snaps = append(snaps, s.BeginReadOnly())
	}

	for i, ro := range snaps {
		ra, err := OpenReadonly[*Meter](ro, a)
		if err != nil {
			t.Fatalf("snapshot %d read a: %v", i, err)
		}
		rb, err := OpenReadonly[*Meter](ro, b)
		if err != nil {
			t.Fatalf("snapshot %d read b: %v", i, err)
		}
		va, vb := ra.Deref().ViewCount, rb.Deref().ViewCount
		if int(va) != i || int(vb) != 100-i {
			t.Fatalf("snapshot %d reads (%d,%d), want (%d,%d)", i, va, vb, i, 100-i)
		}
		if err := ro.Commit(false); err != nil {
			t.Fatalf("snapshot %d close: %v", i, err)
		}
	}
	if st := s.Stats(); st.VersionChains != 0 {
		t.Fatalf("%d version chains survive after all snapshots closed", st.VersionChains)
	}
}

// TestSnapshotDecodeCacheSharing pins the decode-cache contract at the store
// level: consecutive snapshot transactions reading a stable object share one
// unpickled instance, a commit invalidates that instance before its merge (so
// a fresh snapshot decodes — and sees — the new state), and a snapshot pinned
// before the commit keeps reading the old state through the version chain.
func TestSnapshotDecodeCacheSharing(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	setup := s.Begin()
	oid, err := setup.Insert(&Meter{ID: 1, ViewCount: 7})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := setup.Commit(true); err != nil {
		t.Fatalf("setup commit: %v", err)
	}

	// First snapshot read decodes from the chunk store and caches; the second
	// must be handed the very same instance.
	ro1 := s.BeginReadOnly()
	r1, err := OpenReadonly[*Meter](ro1, oid)
	if err != nil {
		t.Fatalf("snapshot 1 read: %v", err)
	}
	ro2 := s.BeginReadOnly()
	r2, err := OpenReadonly[*Meter](ro2, oid)
	if err != nil {
		t.Fatalf("snapshot 2 read: %v", err)
	}
	if r1.Deref() != r2.Deref() {
		t.Fatalf("stable object not shared across snapshots: %p vs %p", r1.Deref(), r2.Deref())
	}
	ro1.Abort()
	ro2.Abort()

	// Pin a snapshot, then overwrite the object. The stage step must evict
	// the cached decode before the merge, so the post-commit snapshot cannot
	// be handed the stale instance.
	old := s.BeginReadOnly()
	w := s.Begin()
	wref, err := OpenWritable[*Meter](w, oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	wref.Deref().ViewCount = 1000
	if err := w.Commit(true); err != nil {
		t.Fatalf("writer commit: %v", err)
	}

	fresh := s.BeginReadOnly()
	fref, err := OpenReadonly[*Meter](fresh, oid)
	if err != nil {
		t.Fatalf("post-commit snapshot read: %v", err)
	}
	if got := fref.Deref().ViewCount; got != 1000 {
		t.Fatalf("post-commit snapshot ViewCount = %d, want 1000", got)
	}
	oref, err := OpenReadonly[*Meter](old, oid)
	if err != nil {
		t.Fatalf("pinned snapshot read: %v", err)
	}
	if got := oref.Deref().ViewCount; got != 7 {
		t.Fatalf("pinned snapshot ViewCount = %d, want pre-commit 7", got)
	}
	old.Abort()
	fresh.Abort()
}

// TestDecodeCacheTableInvariants exercises the versionTable decode cache
// white-box: decodedPut refuses an object that grew a chain (the stale-decode
// race re-check), stage evicts an existing entry, and the byte budget evicts
// rather than grows without bound.
func TestDecodeCacheTableInvariants(t *testing.T) {
	vt := newVersionTable()
	obj := &Meter{ID: 1}

	// A staged chain blocks decodedPut: the decode may predate the stage.
	sv := []stagedVersion{{oid: 7, data: []byte{1}, present: true, preExisted: true}}
	vt.stage(sv)
	vt.decodedPut(7, obj, 100)
	if _, cached := vt.decoded[7]; cached {
		t.Fatalf("decodedPut cached an object with a live chain")
	}
	vt.unstage(sv)

	// With no chain the put lands, and a later stage evicts it.
	vt.decodedPut(7, obj, 100)
	if _, cached := vt.decoded[7]; !cached {
		t.Fatalf("decodedPut did not cache a chainless object")
	}
	vt.stage(sv)
	if _, cached := vt.decoded[7]; cached {
		t.Fatalf("stage left a stale decode behind")
	}
	vt.unstage(sv)
	if vt.decodedBytes != 0 {
		t.Fatalf("decodedBytes = %d after eviction, want 0", vt.decodedBytes)
	}

	// The budget holds: inserting past it evicts down, never grows past it.
	const half = decodedBudget / 2
	vt.decodedPut(1, obj, half)
	vt.decodedPut(2, obj, half)
	vt.decodedPut(3, obj, half)
	if vt.decodedBytes > decodedBudget {
		t.Fatalf("decodedBytes = %d exceeds budget %d", vt.decodedBytes, decodedBudget)
	}
	if len(vt.decoded) != 2 {
		t.Fatalf("decoded entries = %d after budget eviction, want 2", len(vt.decoded))
	}
	// Re-putting an existing id replaces, not double-counts.
	for id := range vt.decoded {
		vt.decodedPut(id, obj, half)
	}
	if vt.decodedBytes > decodedBudget {
		t.Fatalf("decodedBytes = %d after duplicate put, want <= %d", vt.decodedBytes, decodedBudget)
	}
}

// TestSnapshotStress races snapshot readers against group-commit writers and
// version reclamation (run under -race). Writers each own a pair of meters
// and move counts between them so every committed state keeps the pair's sum
// at zero; any reader observing a nonzero sum caught a torn commit. Readers
// churn pins constantly, so reclamation runs concurrently with both staging
// and resolution.
func TestSnapshotStress(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	const writers = 4
	commitsPer := 120
	readersPer := 2
	if testing.Short() {
		commitsPer = 40
	}

	setup := s.Begin()
	oids := make([]ObjectID, 2*writers)
	for i := range oids {
		oid, err := setup.Insert(&Meter{ID: int32(i)})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		oids[i] = oid
	}
	if err := setup.Commit(true); err != nil {
		t.Fatalf("setup commit: %v", err)
	}

	var stop atomic.Bool
	errc := make(chan error, writers*(1+readersPer))
	var wgWriters, wgReaders sync.WaitGroup

	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			pa, pb := oids[2*w], oids[2*w+1]
			for i := 0; i < commitsPer; i++ {
				txn := s.Begin()
				ra, err := OpenWritable[*Meter](txn, pa)
				if err == nil {
					var rb WritableRef[*Meter]
					rb, err = OpenWritable[*Meter](txn, pb)
					if err == nil {
						ra.Deref().ViewCount += int32(i)
						rb.Deref().ViewCount -= int32(i)
						err = txn.Commit(i%4 == 0)
					}
				}
				if err != nil {
					txn.Abort()
					errc <- fmt.Errorf("writer %d commit %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < writers*readersPer; r++ {
		wgReaders.Add(1)
		go func(r int) {
			defer wgReaders.Done()
			for i := 0; !stop.Load(); i++ {
				ro := s.BeginReadOnly()
				for w := 0; w < writers; w++ {
					ra, err := OpenReadonly[*Meter](ro, oids[2*w])
					if err != nil {
						errc <- fmt.Errorf("reader %d pair %d: %w", r, w, err)
						ro.Abort()
						return
					}
					rb, err := OpenReadonly[*Meter](ro, oids[2*w+1])
					if err != nil {
						errc <- fmt.Errorf("reader %d pair %d: %w", r, w, err)
						ro.Abort()
						return
					}
					if sum := ra.Deref().ViewCount + rb.Deref().ViewCount; sum != 0 {
						errc <- fmt.Errorf("reader %d saw torn commit: pair %d sums to %d", r, w, sum)
						ro.Abort()
						return
					}
				}
				if err := ro.Commit(false); err != nil {
					errc <- fmt.Errorf("reader %d close: %w", r, err)
					return
				}
			}
		}(r)
	}

	// Readers validate continuously while the writers run; once the last
	// writer finishes, release the readers and drain any reported failure.
	wgWriters.Wait()
	stop.Store(true)
	wgReaders.Wait()

	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// With every pin released, reclamation must drain the version table.
	if st := s.Stats(); st.VersionChains != 0 {
		t.Fatalf("%d version chains survive after stress", st.VersionChains)
	}
	if st := s.Stats(); st.LockEntries != 0 {
		t.Fatalf("%d lock entries survive after stress", st.LockEntries)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
