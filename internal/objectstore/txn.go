package objectstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"tdb/internal/chunkstore"
)

// Txn is a transaction (paper Figure 3). Object accesses must go through a
// transaction; each executes atomically with respect to concurrent
// transactions (strict two-phase locking) and crashes (the chunk store's
// atomic commit). Transactions may run concurrently in different
// goroutines; a single Txn is not itself meant for concurrent use by
// multiple goroutines.
type Txn struct {
	s      *Store
	active bool
	// locks tracks held lock modes for release and upgrade decisions.
	locks map[ObjectID]lockMode
	// opened tracks every object touched by this transaction.
	opened map[ObjectID]*txnObject
	// rootSet stages a root-pointer update.
	rootSet bool
	rootOID ObjectID
	// staged carries the version-table entries of an in-flight commit from
	// staging (before the chunk-store merge) to publish (after it).
	staged []stagedVersion

	// Read-only (snapshot) transactions: see BeginReadOnly. A read-only
	// Txn touches neither the lock table nor the store mutex after Begin;
	// its state below is confined to the owning goroutine (a Txn is not
	// for concurrent use, as documented above).
	readOnly bool
	roActive bool
	// pin is the commit stamp this snapshot resolves against.
	pin uint64
	// roRoot is the root pointer as of the pinned stamp.
	roRoot ObjectID
	// snap remembers objects already resolved by this snapshot, so every
	// oid unpickles once and repeated opens return the same instance. It is
	// borrowed from snapMemos from BeginReadOnly until the transaction ends.
	snap *snapMemo
}

// snapMemo is a snapshot transaction's oid → object memo. A lookup
// transaction opens a couple of dozen objects, so the first snapMemoInline
// sit in an array found by a linear scan; only a transaction that opens
// more (a scan) pays for a map. Memos are recycled, so a transaction
// neither allocates nor zeroes one.
type snapMemo struct {
	n      int
	inline [snapMemoInline]struct {
		oid ObjectID
		obj Object
	}
	spill map[ObjectID]Object
}

const snapMemoInline = 32

var snapMemos = sync.Pool{New: func() any { return new(snapMemo) }}

// release forgets what the memo holds and returns it to the pool.
func (m *snapMemo) release() {
	clear(m.inline[:m.n])
	m.n, m.spill = 0, nil
	snapMemos.Put(m)
}

func (m *snapMemo) get(oid ObjectID) (Object, bool) {
	for i := range m.inline[:m.n] {
		if m.inline[i].oid == oid {
			return m.inline[i].obj, true
		}
	}
	obj, ok := m.spill[oid]
	return obj, ok
}

// put records an oid that get did not find.
func (m *snapMemo) put(oid ObjectID, obj Object) {
	if m.n < snapMemoInline {
		m.inline[m.n].oid, m.inline[m.n].obj = oid, obj
		m.n++
		return
	}
	if m.spill == nil {
		m.spill = make(map[ObjectID]Object)
	}
	m.spill[oid] = obj
}

// txnObject is the per-transaction state of one object.
type txnObject struct {
	// obj is what the transaction's opens return: the decode table's shared
	// instance until the first writable open or Remove, after that a private
	// copy (or the object Insert was given).
	obj Object
	// inserted, written, removed reflect the operations performed.
	inserted bool
	written  bool
	removed  bool
	// prePickle holds the committed pickled state at first writable open (the
	// bytes the private copy was decoded from) or at Remove; objects
	// whose state is byte-identical at commit are not rewritten, keeping
	// log traffic proportional to actual modifications (cf. §4.2.1's
	// "only modified objects are written to the log").
	prePickle []byte
	// roSnapshot holds the pickled state at first read-only open, for the
	// optional mutation check.
	roSnapshot []byte
}

// noteLock records a granted lock (called by the lock table).
func (t *Txn) noteLock(oid ObjectID, mode lockMode) {
	if cur, ok := t.locks[oid]; !ok || mode == lockExclusive && cur == lockShared {
		t.locks[oid] = mode
	}
}

// lock acquires an object lock unless locking is disabled.
func (t *Txn) lock(oid ObjectID, mode lockMode) error {
	if t.s.cfg.DisableLocking {
		return nil
	}
	if cur, ok := t.locks[oid]; ok && (cur == lockExclusive || mode == lockShared) {
		return nil // already held in a sufficient mode
	}
	return t.s.locks.acquire(&t.s.mu, t, oid, mode, t.s.cfg.LockTimeout)
}

// Insert stores a new object and returns its persistent id (paper Figure
// 3). The transaction holds the object until it ends; the id is the id of
// the chunk that will hold it (§4.2.1).
func (t *Txn) Insert(obj Object) (ObjectID, error) {
	if t.readOnly {
		return NilObject, ErrReadOnlyTxn
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.insertLocked(obj)
}

// insertLocked allocates the chunk id and stages the insert with the store
// mutex held by design: the allocation must stay ordered with the exclusive
// lock acquisition that reserves the id for this transaction. Caller holds
// s.mu.
func (t *Txn) insertLocked(obj Object) (ObjectID, error) {
	if !t.active {
		return NilObject, ErrTxnDone
	}
	if obj == nil {
		return NilObject, fmt.Errorf("objectstore: inserting nil object")
	}
	cid, err := t.s.chunks.AllocateChunkID()
	if err != nil {
		return NilObject, err
	}
	oid := ObjectID(cid)
	if err := t.lock(oid, lockExclusive); err != nil {
		// Fresh id: nobody else can hold it; a timeout here is unexpected
		// but handled uniformly. Returning the id is cleanup whose failure
		// the caller must still see — a leaked id stays allocated until the
		// next crash recovery.
		if rerr := t.s.chunks.Release(cid); rerr != nil {
			return NilObject, errors.Join(err, fmt.Errorf("objectstore: releasing unused chunk id %d: %w", cid, rerr))
		}
		return NilObject, err
	}
	t.opened[oid] = &txnObject{obj: obj, inserted: true, written: true}
	return oid, nil
}

// OpenReadonly opens an object for reading. In a read-write transaction
// this takes a shared lock; in a read-only transaction it resolves the
// object against the pinned snapshot without locking. Either way the object
// usually comes from the decode table, shared with every other reader: it
// must not be modified; enable Config.ReadonlyChecks to verify that during
// development.
func (t *Txn) OpenReadonly(oid ObjectID) (Object, error) {
	if t.readOnly {
		return t.snapshotOpen(oid)
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.openLocked(oid, lockShared)
}

// OpenWritable opens an object for reading and writing under an exclusive
// lock. Mutations become persistent when the transaction commits. The
// object is a private copy decoded from the committed state, so no other
// transaction sees an uncommitted mutation; from now on every open of the
// object in this transaction returns that copy. A reference obtained from an
// earlier OpenReadonly of the same object is not that copy and does not see
// the transaction's writes.
func (t *Txn) OpenWritable(oid ObjectID) (Object, error) {
	if t.readOnly {
		return nil, ErrReadOnlyTxn
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.openLocked(oid, lockExclusive)
}

// snapshotOpen resolves oid against this read-only transaction's pinned
// stamp. It takes no object locks and never returns ErrLockTimeout. A
// cached chain-free object — the hot case — is answered by the decode table
// with no lock and no write to shared memory; otherwise the version table
// answers under a short read lock, and the no-chain fallback reads the
// committed state from the chunk store directly.
func (t *Txn) snapshotOpen(oid ObjectID) (Object, error) {
	if !t.roActive {
		return nil, ErrTxnDone
	}
	if oid == NilObject {
		return nil, fmt.Errorf("%w: nil object id", ErrNotFound)
	}
	if obj, ok := t.snap.get(oid); ok {
		return obj, nil
	}
	vt := t.s.versions
	if shared := vt.decoded.get(oid); shared != nil {
		t.snap.put(oid, shared)
		return shared, nil
	}
	data, present, ok := vt.resolve(oid, t.pin)
	var obj Object
	var err error
	if !ok {
		// No chain: the chunk store holds the committed state. The read
		// can race a committing writer's merge, so re-check the table
		// afterwards: a commit that merged ahead of our read staged its
		// chain (with our pre-image as baseline) before merging, so the
		// chain is visible by now if the race happened.
		raw, rerr := t.s.readCommitted(oid)
		if data, present, ok = vt.resolve(oid, t.pin); !ok {
			if rerr != nil {
				return nil, rerr
			}
			// Straight from the committed chunk state with no chain in
			// sight: share the decode with future opens.
			obj, err = t.s.decodeCommitted(oid, raw)
		}
	}
	if ok {
		if !present {
			return nil, fmt.Errorf("%w: %d", ErrNotFound, oid)
		}
		obj, err = unpickleObject(t.s.cfg.Registry, data)
	}
	if err != nil {
		return nil, err
	}
	t.snap.put(oid, obj)
	return obj, nil
}

// Prefetch hints that the listed objects are about to be opened, warming
// the read path for them: their committed chunks are fetched, validated,
// and decrypted through the chunk store's batch read pipeline (coalesced
// segment reads, bounded parallel decrypt), and chain-free objects are
// unpickled into the decode table, so snapshot and 2PL read-only opens skip
// the chunk store entirely. It returns the number of chunks
// warmed. Errors are deliberately swallowed — a hint must never fail harder
// than the open it accelerates, and the open will surface them.
//
// Unlike every other Txn method, Prefetch is safe to call concurrently
// with opens on the same transaction (iterators drive it from a prefetch
// goroutine): it touches only store-level state — the version table and
// the chunk store, which are internally synchronized — and none of the
// transaction's own maps.
func (t *Txn) Prefetch(oids []ObjectID) int {
	if len(oids) == 0 {
		return 0
	}
	vt := t.s.versions
	// Pin the current stamp for the duration of the warm. The pin
	// guarantees that any commit staging a chain for one of these objects
	// keeps the chain alive until we are done, which is what makes
	// decodedPut's no-chain recheck sound (see versionTable.decodedPut);
	// the transaction's own pin cannot serve, because a read-write
	// transaction holds none.
	pin, _ := vt.pin()
	defer vt.unpin(pin)
	cands := vt.prefetchFilter(oids)
	if len(cands) == 0 {
		return 0
	}
	cids := make([]chunkstore.ChunkID, len(cands))
	for i, oid := range cands {
		cids[i] = chunkstore.ChunkID(oid)
	}
	warmed := 0
	for i, r := range t.s.chunks.ReadBatch(cids) {
		if r.Err != nil || r.Data == nil {
			continue
		}
		warmed++
		t.s.decodeCommitted(cands[i], r.Data) // a bad chunk fails its open instead
	}
	return warmed
}

// openShared returns oid's committed state for a 2PL read-only open: the
// decode table's shared instance, faulted in on a miss through the same
// helper snapshot opens and prefetch use. The caller's shared lock excludes
// writers, so the chunk store's committed state is current; the pin keeps
// decodedPut's soundness argument the one decoded.go states.
func (s *Store) openShared(oid ObjectID) (Object, error) {
	vt := s.versions
	if obj := vt.decoded.get(oid); obj != nil {
		return obj, nil
	}
	pin, _ := vt.pin()
	defer vt.unpin(pin)
	data, err := s.readCommitted(oid)
	if err != nil {
		return nil, err
	}
	return s.decodeCommitted(oid, data)
}

// openLocked opens an object for a read-write transaction with the store
// mutex held by design: strict 2PL reads serialize on the store mutex, and
// a decode-table miss faults the object in from the chunk store under it
// (§4.2.2). A writable open replaces the shared instance with a private copy
// decoded from the committed bytes, which also become the pre-image.
// The snapshot read path (snapshotOpen) is the one that may not do this —
// it must never reach the chunk store while holding a version-table lock.
// Caller holds s.mu.
func (t *Txn) openLocked(oid ObjectID, mode lockMode) (Object, error) {
	if !t.active {
		return nil, ErrTxnDone
	}
	if oid == NilObject {
		return nil, fmt.Errorf("%w: nil object id", ErrNotFound)
	}
	if err := t.lock(oid, mode); err != nil {
		return nil, err
	}
	to, ok := t.opened[oid]
	if ok && to.removed {
		return nil, fmt.Errorf("%w: %d (removed in this transaction)", ErrNotFound, oid)
	}
	if mode == lockShared {
		if !ok {
			obj, err := t.s.openShared(oid)
			if err != nil {
				return nil, err
			}
			to = &txnObject{obj: obj}
			t.opened[oid] = to
		}
		if t.s.cfg.ReadonlyChecks && !to.written && to.roSnapshot == nil {
			to.roSnapshot = pickleObject(to.obj)
		}
		return to.obj, nil
	}
	if ok && to.written {
		return to.obj, nil
	}
	// First writable open: decode a private copy of the committed state.
	var pre []byte
	if ok {
		pre = pickleObject(to.obj)
	} else {
		var err error
		if pre, err = t.s.committedBytes(oid); err != nil {
			return nil, err
		}
	}
	obj, err := unpickleObject(t.s.cfg.Registry, pre)
	if err != nil {
		return nil, err
	}
	if !ok {
		to = &txnObject{}
		t.opened[oid] = to
	}
	to.obj, to.prePickle, to.written = obj, pre, true
	return obj, nil
}

// Remove deletes the named object and frees its id for reuse (paper Figure
// 3). The removal becomes persistent at commit.
func (t *Txn) Remove(oid ObjectID) error {
	if t.readOnly {
		return ErrReadOnlyTxn
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.removeLocked(oid)
}

// removeLocked stages a removal with the store mutex held by design: like
// openLocked, a decode-table miss reads the committed pre-image from the
// chunk store under it. Caller holds s.mu.
func (t *Txn) removeLocked(oid ObjectID) error {
	if !t.active {
		return ErrTxnDone
	}
	if err := t.lock(oid, lockExclusive); err != nil {
		return err
	}
	to, ok := t.opened[oid]
	if ok && to.removed {
		return fmt.Errorf("%w: %d (already removed)", ErrNotFound, oid)
	}
	// Capture the committed pre-image: if the commit has to create a
	// version chain for this removal, the baseline is this state.
	if !ok {
		pre, err := t.s.committedBytes(oid)
		if err != nil {
			return err
		}
		to = &txnObject{prePickle: pre}
		t.opened[oid] = to
	} else if !to.written {
		to.prePickle = pickleObject(to.obj)
	}
	to.removed = true
	return nil
}

// SetRoot stages the registration of oid as the database root object; the
// update commits with the transaction.
func (t *Txn) SetRoot(oid ObjectID) error {
	if t.readOnly {
		return ErrReadOnlyTxn
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if !t.active {
		return ErrTxnDone
	}
	t.rootSet = true
	t.rootOID = oid
	return nil
}

// Root reads the root object id as seen by this transaction. A read-only
// transaction reports the root as of its pinned snapshot.
func (t *Txn) Root() (ObjectID, error) {
	if t.readOnly {
		if !t.roActive {
			return NilObject, ErrTxnDone
		}
		return t.roRoot, nil
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if !t.active {
		return NilObject, ErrTxnDone
	}
	if t.rootSet {
		return t.rootOID, nil
	}
	return t.s.rootOID, nil
}

// ReadOnly reports whether this is a snapshot (read-only) transaction.
func (t *Txn) ReadOnly() bool { return t.readOnly }

// Active reports whether the transaction can still be used.
func (t *Txn) Active() bool {
	if t.readOnly {
		return t.roActive
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.active
}

// Commit makes the transaction's effects persistent (paper Figure 3:
// commits inserted and written objects and removals). With durable set the
// commit — and all previous nondurable commits — survives crashes.
// The transaction and all references derived from it become invalid.
//
// The expensive half of a commit — pickling the write set and the chunk
// store's stage-1 payload crypto — runs outside the store mutex: the
// transaction's strict two-phase locks make its read/write set private
// until the transaction ends, so no concurrent transaction can observe or
// mutate the objects being pickled. The chunk store's short stage-2 merge
// serializes only on the chunk store's own mutex, and the store mutex here
// is taken just for the cache publish, letting concurrent committers use
// every core (root-pointer commits serialize fully; see commitPublish).
// (With DisableLocking the application asserts there are no concurrent
// transactions; it gets no isolation here either.)
//
// The failure contract is chunkstore.Store.Commit's: an error matching
// chunkstore.ErrMaintenance (post-commit work failed — chunk-store
// maintenance or returning unused chunk ids) or chunkstore.ErrNotDurable
// (the harden failed) means the commit applied and the transaction is
// finished; any other error applied nothing and leaves the transaction
// active so the application can retry or abort.
func (t *Txn) Commit(durable bool) error {
	if t.readOnly {
		return t.finishReadOnly()
	}
	t.s.mu.Lock()
	active := t.active
	t.s.mu.Unlock()
	if !active {
		return ErrTxnDone
	}
	// Optional §4.1-style const check: objects opened read-only must be
	// byte-identical to their state at open. The objects are share-locked,
	// so pickling them unlocked races only with the very bug the check
	// exists to catch.
	if t.s.cfg.ReadonlyChecks {
		for oid, to := range t.opened {
			if to.roSnapshot == nil || to.written || to.removed {
				continue
			}
			if string(pickleObject(to.obj)) != string(to.roSnapshot) {
				// The mutated instance is the decode table's shared one:
				// evict it while the shared lock still excludes writers, so
				// the next open refetches the committed state, then fail the
				// transaction.
				t.s.mu.Lock()
				t.s.versions.decodedRemove(oid)
				t.finishLocked(true)
				t.s.mu.Unlock()
				return fmt.Errorf("%w: object %d", ErrReadonlyViolation, oid)
			}
		}
	}
	// Announce the durable commit before the expensive unlocked work, so a
	// harden round leader's batching window waits for this record instead of
	// syncing just before it lands.
	announced := t.s.chunks.AnnounceDurable(durable)
	// Build the batch and run stage-1 crypto, still unlocked. Each batch
	// entry also becomes a staged version-table entry so snapshot readers
	// pinned before this commit keep resolving the pre-image.
	batch := t.s.chunks.NewBatch()
	var unusedIDs []chunkstore.ChunkID
	t.staged = nil
	for _, oid := range t.openedOIDs() {
		to := t.opened[oid]
		switch {
		case to.removed && to.inserted:
			// Inserted and removed in the same transaction: nothing to
			// persist; the id goes back to the allocator on success.
			unusedIDs = append(unusedIDs, chunkstore.ChunkID(oid))
		case to.removed:
			batch.Deallocate(chunkstore.ChunkID(oid))
			t.staged = append(t.staged, stagedVersion{
				oid: oid, present: false, pre: to.prePickle, preExisted: true,
			})
		case to.written:
			data := pickleObject(to.obj)
			if to.prePickle != nil && string(data) == string(to.prePickle) {
				// Opened writable but never actually changed: skip the
				// write, but the entry is clean again.
				to.written = false
				continue
			}
			batch.Write(chunkstore.ChunkID(oid), data)
			t.staged = append(t.staged, stagedVersion{
				oid: oid, data: data, present: true,
				pre: to.prePickle, preExisted: !to.inserted, obj: to.obj,
			})
		}
	}
	if t.rootSet {
		// Always write the root chunk, even when the pointer appears
		// unchanged: the store's current root is only snapshotted at
		// publish, so skipping "equal" values here could race a concurrent
		// root update between this check and the commit.
		p := NewPickler()
		p.ObjectID(t.rootOID)
		batch.Write(t.s.rootChunk, p.Bytes())
	}
	prep, err := t.s.chunks.PrepareBatch(batch)
	if err != nil {
		// Nothing applied; the transaction stays active.
		t.staged = nil
		if announced {
			t.s.chunks.RetractDurable()
		}
		return err
	}
	// Stage the version-table entries BEFORE the chunk-store merge: once
	// the merge lands, a snapshot reader's chunk-store fallback could see
	// this commit's state, so the chains carrying the pre-images must be
	// in place first (see versionTable).
	t.s.versions.stage(t.staged)
	// Stage 2 + publish under the mutex, then the durability wait outside
	// it.
	ticket, err := t.commitPublish(batch, prep, unusedIDs, durable)
	if err != nil && !errors.Is(err, chunkstore.ErrMaintenance) {
		// The chunk store applied nothing; keep the transaction active so
		// the application can retry or abort. The staged versions never
		// became visible as committed state; discard them.
		t.s.versions.unstage(t.staged)
		t.staged = nil
		if announced {
			t.s.chunks.RetractDurable()
		}
		return err
	}
	if werr := t.s.chunks.AwaitDurable(ticket); werr != nil {
		return werr
	}
	return err
}

// commitPublish runs chunk-store commit stage 2 and, when the commit
// applied, publishes the results — root pointer, version table, unused-id
// returns — and ends the transaction. Failures of post-commit work are
// reported wrapped as chunkstore.ErrMaintenance; the commit stands.
func (t *Txn) commitPublish(batch *chunkstore.Batch, prep *chunkstore.PreparedBatch, unusedIDs []chunkstore.ChunkID, durable bool) (chunkstore.CommitTicket, error) {
	if t.rootSet {
		return t.commitRoot(batch, prep, unusedIDs, durable)
	}
	// Ordinary commits run chunk-store stage 2 outside the store mutex:
	// strict 2PL keeps the write set exclusively locked until finish, so no
	// concurrent transaction can observe the gap between the chunk commit
	// and the cache publish, and disjoint committers serialize only on the
	// chunk store's own short stage 2. This is also what lets harden rounds
	// form — while one round's log sync is in flight, other
	// committers can append their records and join the next round.
	ticket, err := t.s.chunks.CommitPrepared(batch, prep, durable)
	if err != nil && !errors.Is(err, chunkstore.ErrMaintenance) {
		return ticket, err
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return ticket, t.publishLocked(unusedIDs, err)
}

// commitRoot serializes a root-pointer commit fully: the in-memory root
// pointer must be updated in the same order as the chunk-store commits
// persisting it, and only the store mutex provides that ordering.
func (t *Txn) commitRoot(batch *chunkstore.Batch, prep *chunkstore.PreparedBatch, unusedIDs []chunkstore.ChunkID, durable bool) (chunkstore.CommitTicket, error) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.commitRootLocked(batch, prep, unusedIDs, durable)
}

// commitRootLocked runs chunk-store stage 2 with the store mutex held by
// design: holding it across the merge is what keeps the root-pointer update
// ordered with the commit persisting it. Caller holds s.mu.
func (t *Txn) commitRootLocked(batch *chunkstore.Batch, prep *chunkstore.PreparedBatch, unusedIDs []chunkstore.ChunkID, durable bool) (chunkstore.CommitTicket, error) {
	ticket, err := t.s.chunks.CommitPrepared(batch, prep, durable)
	if err != nil && !errors.Is(err, chunkstore.ErrMaintenance) {
		return ticket, err
	}
	t.s.rootOID = t.rootOID
	return ticket, t.publishLocked(unusedIDs, err)
}

// publishLocked finishes a committed transaction: publishes the staged
// versions, returns unused chunk ids to the allocator, and releases locks. Failures of
// this post-commit work are reported wrapped as chunkstore.ErrMaintenance;
// the commit stands. Caller holds s.mu.
func (t *Txn) publishLocked(unusedIDs []chunkstore.ChunkID, postErr error) error {
	// The chunk-store merge applied: assign the commit stamp to the staged
	// versions so snapshot readers pinning from now on see this commit.
	t.s.versions.publish(t.staged, t.rootSet, t.rootOID)
	t.staged = nil
	for _, cid := range unusedIDs {
		if rerr := t.s.chunks.Release(cid); rerr != nil && postErr == nil {
			postErr = fmt.Errorf("%w: releasing unused chunk id %d: %w", chunkstore.ErrMaintenance, cid, rerr)
		}
	}
	t.finishLocked(false)
	return postErr
}

// Abort undoes the transaction (paper Figure 3): the private copies of
// objects opened for writing are dropped with the transaction, chunk ids of
// inserted objects are released, and all locks drop (§4.2.3).
func (t *Txn) Abort() {
	if t.readOnly {
		t.finishReadOnly()
		return
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if !t.active {
		return
	}
	t.finishLocked(true)
}

// finishReadOnly ends a snapshot transaction: the pin drops (letting the
// version table reclaim retired versions) and the transaction becomes
// unusable. Commit and Abort are equivalent for read-only transactions —
// there is nothing to persist or undo.
func (t *Txn) finishReadOnly() error {
	if !t.roActive {
		return ErrTxnDone
	}
	t.roActive = false
	t.snap.release()
	t.snap = nil
	t.s.versions.unpin(t.pin)
	return nil
}

// openedOIDs returns the transaction's touched object ids in ascending
// order. Commit and abort walk the write set in this order so chunk-id
// deallocations and releases reach the allocator's free list in a stable
// order: a deterministic workload then produces the same on-disk id layout
// on every run, which is what lets the chaos oracle promise byte-identical
// traces per seed.
func (t *Txn) openedOIDs() []ObjectID {
	oids := make([]ObjectID, 0, len(t.opened))
	for oid := range t.opened {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids
}

// finishLocked releases locks with the store mutex held by design (an
// aborted insert returns its chunk id to the allocator under it); with
// aborted it also releases the ids of inserted objects. Caller holds s.mu.
func (t *Txn) finishLocked(aborted bool) {
	if aborted {
		for _, oid := range t.openedOIDs() {
			if t.opened[oid].inserted {
				t.s.chunks.Release(chunkstore.ChunkID(oid))
			}
		}
	}
	if !t.s.cfg.DisableLocking {
		t.s.locks.release(t)
	}
	t.active = false
}
