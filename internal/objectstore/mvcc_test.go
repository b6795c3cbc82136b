package objectstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
// race re-check), stage clears an existing entry so a probe misses, and the
// byte budget evicts rather than grows without bound.
func TestDecodeCacheTableInvariants(t *testing.T) {
	vt := newVersionTable()
	dt := &vt.decoded
	obj := &Meter{ID: 1}

	// A staged chain blocks decodedPut: the decode may predate the stage.
	sv := []stagedVersion{{oid: 7, data: []byte{1}, present: true, preExisted: true}}
	vt.stage(sv)
	vt.decodedPut(7, obj, 100)
	if dt.get(7) != nil {
		t.Fatalf("decodedPut cached an object with a live chain")
	}
	vt.unstage(sv)

	// With no chain the put lands, and a later stage clears it.
	vt.decodedPut(7, obj, 100)
	if dt.get(7) != Object(obj) {
		t.Fatalf("decodedPut did not cache a chainless object")
	}
	vt.stage(sv)
	if dt.get(7) != nil {
		t.Fatalf("stage left a stale decode behind")
	}
	vt.unstage(sv)
	if n, bytes := dt.resident(); n != 0 || bytes != 0 || dt.bytes != 0 {
		t.Fatalf("after stage: %d entries, %d bytes resident, %d accounted; want all 0", n, bytes, dt.bytes)
	}

	// The budget holds: inserting past it evicts down, never grows past it.
	const piece = decodedMaxEntry
	for oid := ObjectID(1); oid <= 3*decodedBudget/piece; oid++ {
		vt.decodedPut(oid, obj, piece)
		if n, bytes := dt.resident(); bytes != dt.bytes || bytes > decodedBudget {
			t.Fatalf("after put %d: %d entries hold %d bytes, %d accounted, budget %d", oid, n, bytes, dt.bytes, decodedBudget)
		}
	}
	if n, _ := dt.resident(); n != decodedBudget/piece {
		t.Fatalf("decoded entries = %d after budget eviction, want %d", n, decodedBudget/piece)
	}
	// Re-putting an existing id replaces, not double-counts.
	before, _ := dt.resident()
	for i := range dt.slots {
		if e := dt.slots[i].Load(); e != nil {
			vt.decodedPut(e.oid, obj, piece)
		}
	}
	if n, bytes := dt.resident(); n != before || bytes != dt.bytes || bytes > decodedBudget {
		t.Fatalf("after duplicate puts: %d entries (want %d), %d bytes resident, %d accounted", n, before, bytes, dt.bytes)
	}
}

// TestDecodeCacheAdmission pins the admission rule the map-based cache got
// wrong: an object larger than the whole budget used to flush every entry
// and then be cached anyway, leaving the cache over budget. The table
// refuses anything above decodedMaxEntry and leaves the rest alone.
func TestDecodeCacheAdmission(t *testing.T) {
	vt := newVersionTable()
	dt := &vt.decoded
	obj := &Meter{ID: 1}
	for oid := ObjectID(1); oid <= 100; oid++ {
		vt.decodedPut(oid, obj, 1000)
	}
	for _, size := range []int64{decodedMaxEntry + 1, decodedBudget, 2 * decodedBudget} {
		vt.decodedPut(500, obj, size)
		if dt.get(500) != nil {
			t.Fatalf("object of %d bytes admitted; the limit is %d", size, decodedMaxEntry)
		}
		if n, bytes := dt.resident(); n != 100 || bytes != 100*1000 || dt.bytes != bytes {
			t.Fatalf("refusing %d bytes disturbed the cache: %d entries, %d bytes, %d accounted", size, n, bytes, dt.bytes)
		}
	}
	// An oversized re-put of a cached id must not leave the old decode behind.
	vt.decodedPut(1, obj, decodedMaxEntry+1)
	if dt.get(1) != nil {
		t.Fatalf("oversized re-put left the previous entry in place")
	}
	vt.decodedPut(2, obj, decodedMaxEntry)
	if dt.get(2) == nil {
		t.Fatalf("object of exactly decodedMaxEntry bytes refused")
	}

	// A full set replaces within itself: more ids than ways in one set leave
	// exactly decodedWays of them resident, with the accounting exact.
	vt = newVersionTable()
	dt = &vt.decoded
	home := dt.set(1)
	var same []ObjectID
	for oid := ObjectID(1); len(same) < 3*decodedWays; oid++ {
		if dt.set(oid) == home {
			same = append(same, oid)
			vt.decodedPut(oid, obj, 10)
		}
	}
	hits := 0
	for _, oid := range same {
		if dt.get(oid) != nil {
			hits++
		}
	}
	if n, bytes := dt.resident(); hits != decodedWays || n != decodedWays || bytes != 10*decodedWays || dt.bytes != bytes {
		t.Fatalf("one set holds %d of %d ids (%d entries, %d bytes, %d accounted); want %d", hits, len(same), n, bytes, dt.bytes, decodedWays)
	}
	if dt.get(same[len(same)-1]) == nil {
		t.Fatalf("the most recent put is not resident")
	}
}

// slotOf returns the slot holding oid's entry, or -1.
func slotOf(dt *decodedTable, oid ObjectID) int {
	set := dt.set(oid)
	for i := set; i < set+decodedWays; i++ {
		if e := dt.slots[i].Load(); e != nil && e.oid == oid {
			return i
		}
	}
	return -1
}

// TestDecodeTableSmallEntriesOutliveChurn: small entries admitted into a
// table of 1 KiB records hold the full credit, and survive that many passes
// of the sweep hand while a stream of 1 KiB records turns the table over —
// and no more, so a credit delays eviction but never pins an entry.
func TestDecodeTableSmallEntriesOutliveChurn(t *testing.T) {
	dt := new(decodedTable)
	obj := &Meter{ID: 1}
	const big, small = 1 << 10, 64
	next := ObjectID(1)
	for dt.bytes+big <= decodedBudget {
		dt.put(next, obj, big)
		next++
	}
	smalls := make(map[ObjectID]int) // small entry → its slot
	for len(smalls) < 64 {
		dt.put(next, obj, small)
		smalls[next] = slotOf(dt, next)
		if c := dt.credit[smalls[next]]; c != decodedMaxCredit {
			t.Fatalf("a %d-byte entry among %d-byte ones got credit %d, want %d", small, big, c, decodedMaxCredit)
		}
		next++
	}
	// Each 1 KiB put evicts the first credit-less record ahead of the hand,
	// well within a lap, so the slots a put's walk passed are [prev, hand).
	passes := make(map[ObjectID]int)
	for puts := 0; len(smalls) > 0; puts++ {
		if puts > 16*decodedBudget/big {
			t.Fatalf("%d small entries still resident after %d puts", len(smalls), puts)
		}
		prev := dt.hand
		dt.put(next, obj, big)
		next++
		for oid, slot := range smalls {
			if prev <= dt.hand && prev <= slot && slot < dt.hand ||
				prev > dt.hand && (slot >= prev || slot < dt.hand) {
				passes[oid]++
			}
			resident := slotOf(dt, oid) == slot
			switch {
			case !resident && passes[oid] <= decodedMaxCredit:
				t.Fatalf("small entry %d evicted after %d passes of the hand; its credit was %d", oid, passes[oid], decodedMaxCredit)
			case resident && passes[oid] > decodedMaxCredit:
				t.Fatalf("small entry %d survived %d passes of the hand on a credit of %d", oid, passes[oid], decodedMaxCredit)
			case !resident:
				delete(smalls, oid)
			}
		}
	}
}

// TestDecodeTableEqualSizesEvictAsBefore: with every entry the same size the
// credits are all equal, so they change when the hand evicts but not how
// many entries it evicts: once the table is full, every put of a new id
// evicts exactly one entry, as the size-blind sweep did. The ids are chosen
// so that no set ever overflows, leaving the budget as the only reason to
// evict.
func TestDecodeTableEqualSizesEvictAsBefore(t *testing.T) {
	obj := &Meter{ID: 1}
	for _, size := range []int64{1000, 4096, 64 << 10} {
		dt := new(decodedTable)
		fits := int(decodedBudget / size)
		perSet := make(map[int]int)
		evicted := 0
		puts := 0
		for oid := ObjectID(1); puts < 3*fits; oid++ {
			if perSet[dt.set(oid)] == decodedWays {
				continue
			}
			perSet[dt.set(oid)]++
			before := dt.count
			dt.put(oid, obj, size)
			evicted += before + 1 - dt.count
			puts++
			if want := max(0, puts-fits); evicted != want {
				t.Fatalf("size %d: %d puts evicted %d entries, want %d", size, puts, evicted, want)
			}
		}
		if n, bytes := dt.resident(); n != fits || bytes != int64(fits)*size {
			t.Fatalf("size %d: %d entries, %d bytes resident; want %d entries", size, n, bytes, fits)
		}
	}
}

// TestDecodeTableAccountingUnderMixedSizes: through a seeded stream of puts
// of mixed sizes (some over decodedMaxEntry) and removes, the accounted
// bytes and count match the slots after every step, stay within the budget,
// and no credit exceeds the cap.
func TestDecodeTableAccountingUnderMixedSizes(t *testing.T) {
	dt := new(decodedTable)
	obj := &Meter{ID: 1}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2000; step++ {
		oid := ObjectID(1 + rng.Intn(4000))
		switch r := rng.Intn(20); {
		case r == 0:
			dt.remove(oid)
		case r == 1:
			dt.put(oid, obj, decodedMaxEntry+int64(rng.Intn(1000)))
		case r < 8:
			dt.put(oid, obj, 64+int64(rng.Intn(200)))
		case r < 14:
			dt.put(oid, obj, 900+int64(rng.Intn(200)))
		default:
			dt.put(oid, obj, 8<<10+int64(rng.Intn(56<<10)))
		}
		n, bytes := dt.resident()
		if n != dt.count || bytes != dt.bytes || bytes > decodedBudget {
			t.Fatalf("step %d: %d entries hold %d bytes; accounted %d entries, %d bytes; budget %d", step, n, bytes, dt.count, dt.bytes, decodedBudget)
		}
	}
	for i, c := range dt.credit {
		if c > decodedMaxCredit || c != 0 && dt.slots[i].Load() == nil {
			t.Fatalf("slot %d holds credit %d (cap %d, occupied %v)", i, c, decodedMaxCredit, dt.slots[i].Load() != nil)
		}
	}
}

// TestDecodeTableFullCreditWalkIsBounded: the hand's worst case is a full
// table whose every entry holds the maximum credit. A put then walks
// decodedMaxCredit laps spending every credit, and evicts the first entry of
// the next lap: one entry goes, and the walk ends within
// (decodedMaxCredit+1) × len(slots) steps.
func TestDecodeTableFullCreditWalkIsBounded(t *testing.T) {
	dt := new(decodedTable)
	obj := &Meter{ID: 1}
	const size = 1000
	oid := ObjectID(1)
	for ; dt.bytes+size <= decodedBudget; oid++ {
		dt.put(oid, obj, size)
	}
	first := -1
	for i := range dt.slots {
		if dt.slots[i].Load() != nil {
			dt.credit[i] = decodedMaxCredit
			if first < 0 {
				first = i
			}
		}
	}
	dt.hand = 0
	victim := dt.slots[first].Load().oid
	count := dt.count
	dt.put(oid, obj, size)
	if dt.get(oid) == nil || dt.get(victim) != nil || dt.count != count {
		t.Fatalf("new entry resident %v, first entry evicted %v, %d entries (want %d)", dt.get(oid) != nil, dt.get(victim) == nil, dt.count, count)
	}
	if dt.hand != first+1 {
		t.Fatalf("the walk ended at slot %d of its last lap, want %d", dt.hand, first+1)
	}
	for i := range dt.slots {
		if e := dt.slots[i].Load(); e != nil && e.oid != oid && dt.credit[i] != 0 {
			t.Fatalf("slot %d kept credit %d after %d laps", i, dt.credit[i], decodedMaxCredit)
		}
	}
}

// TestDecodeTableFullSetEvictsLeastCredited: a put into a full set evicts
// the way holding the least credit, wherever it sits in the set.
func TestDecodeTableFullSetEvictsLeastCredited(t *testing.T) {
	obj := &Meter{ID: 1}
	var same []ObjectID
	probe := new(decodedTable)
	home := probe.set(1)
	for oid := ObjectID(1); len(same) < decodedWays+1; oid++ {
		if probe.set(oid) == home {
			same = append(same, oid)
		}
	}
	for least := 0; least < decodedWays; least++ {
		dt := new(decodedTable)
		for _, oid := range same[:decodedWays] {
			dt.put(oid, obj, 100)
		}
		for w := 0; w < decodedWays; w++ {
			dt.credit[home+w] = 2
		}
		dt.credit[home+least] = 1
		victim := dt.slots[home+least].Load().oid
		dt.put(same[decodedWays], obj, 100)
		for _, oid := range same {
			if resident := dt.get(oid) != nil; resident == (oid == victim) {
				t.Fatalf("least-credited way %d: entry %d resident %v, victim %d", least, oid, resident, victim)
			}
		}
	}
}

// TestDecodeTableLockFreeProbe is the concurrency proof for the lock-free
// probe (run under -race). One writer commits generation k to a pair of
// hot objects as (k, -k); it is the only committer, so generation k is
// exactly stamp base+k. Readers hammer the pair and a stable neighbour
// through snapshotOpen — decode-table probes racing the writer's stage
// (clear) and the readers' own decodedPut — and every read must return
// exactly the generation of the reader's pin: nothing newer, nothing torn,
// and never the pre-image of a commit that returned before the reader began.
func TestDecodeTableLockFreeProbe(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	commits := 400
	if testing.Short() {
		commits = 100
	}
	const readers = 4

	setup := s.Begin()
	var pa, pb, stable ObjectID
	for _, dst := range []*ObjectID{&pa, &pb, &stable} {
		oid, err := setup.Insert(&Meter{ID: 77})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		*dst = oid
	}
	if err := setup.Commit(true); err != nil {
		t.Fatalf("setup commit: %v", err)
	}
	base, _ := s.versions.pin()
	s.versions.unpin(base)

	var committed atomic.Int32 // last generation whose Commit returned
	var stop atomic.Bool
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				floor := committed.Load()
				ro := s.BeginReadOnly()
				want := int32(ro.pin - base)
				var got [3]int32
				for i, oid := range [3]ObjectID{pa, pb, stable} {
					ref, err := OpenReadonly[*Meter](ro, oid)
					if err != nil {
						errc <- fmt.Errorf("reader %d: %w", r, err)
						ro.Abort()
						return
					}
					got[i] = ref.Deref().ViewCount
				}
				ro.Abort()
				if got[0] != want || got[1] != -want || got[2] != 0 {
					errc <- fmt.Errorf("reader %d pinned generation %d, read pair (%d, %d), stable %d", r, want, got[0], got[1], got[2])
					return
				}
				if want < floor {
					errc <- fmt.Errorf("reader %d began after generation %d committed but pinned %d", r, floor, want)
					return
				}
			}
		}(r)
	}
	for k := int32(1); k <= int32(commits); k++ {
		txn := s.Begin()
		ra, err := OpenWritable[*Meter](txn, pa)
		if err == nil {
			var rb WritableRef[*Meter]
			if rb, err = OpenWritable[*Meter](txn, pb); err == nil {
				ra.Deref().ViewCount, rb.Deref().ViewCount = k, -k
				err = txn.Commit(false)
			}
		}
		if err != nil {
			txn.Abort()
			errc <- fmt.Errorf("writer generation %d: %w", k, err)
			break
		}
		committed.Store(k)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Quiesced: no pins, so no chains; every slot is empty or holds the
	// committed state.
	if st := s.Stats(); st.VersionChains != 0 {
		t.Fatalf("%d version chains survive quiesce", st.VersionChains)
	}
	for oid, want := range map[ObjectID]int32{pa: int32(commits), pb: -int32(commits), stable: 0} {
		if obj := s.versions.decoded.get(oid); obj != nil && obj.(*Meter).ViewCount != want {
			t.Fatalf("decode table holds ViewCount %d for object %d; committed state is %d", obj.(*Meter).ViewCount, oid, want)
		}
	}
}

// TestSnapshotMissTakesNoTableLock pins the miss path's lock footprint: while
// no version chain exists, a snapshot open the decode table cannot answer —
// resolve, the chunk read, the re-check and decodedPut — takes no
// versionTable.mu, so concurrent readers' misses never queue on it. The test
// holds mu exclusively while 64 such opens run; each must complete and leave
// its object in the decode table.
func TestSnapshotMissTakesNoTableLock(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	const n = 64
	setup := s.Begin()
	oids := make([]ObjectID, n)
	for i := range oids {
		oid, err := setup.Insert(&Meter{ID: int32(i), ViewCount: int32(i)})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		oids[i] = oid
	}
	if err := setup.Commit(true); err != nil {
		t.Fatalf("setup commit: %v", err)
	}
	vt := s.versions
	if c := vt.chainCount(); c != 0 {
		t.Fatalf("%d version chains after a commit no reader saw", c)
	}
	for _, oid := range oids {
		vt.decodedRemove(oid)
	}
	ro := s.BeginReadOnly()
	defer ro.Abort()

	done := make(chan error, 1)
	vt.mu.Lock()
	go func() {
		for i, oid := range oids {
			ref, err := OpenReadonly[*Meter](ro, oid)
			if err != nil {
				done <- fmt.Errorf("open %d: %w", oid, err)
				return
			}
			if m := ref.Deref(); m.ViewCount != int32(i) || vt.decoded.get(oid) != Object(m) {
				done <- fmt.Errorf("open %d read ViewCount %d (want %d), decode table holds %p, open returned %p", oid, m.ViewCount, i, vt.decoded.get(oid), m)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		vt.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		vt.mu.Unlock()
		<-done
		t.Fatal("snapshot misses did not complete while versionTable.mu was held exclusively")
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
