package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"tdb"
	"tdb/internal/platform"
)

// opErr classifies an action-level error: if the injected crash fired the
// failure is expected — trace it and let step() run recovery; anything else
// is an invariant violation or harness-fatal condition.
func (h *harness) opErr(label string, err error) error {
	if err == nil {
		return nil
	}
	if h.fs.Crashed() {
		h.tracef("%s crashed", label)
		return nil
	}
	return fmt.Errorf("%s: %w", label, err)
}

// txnFail aborts a transaction that died mid-build and classifies the error.
func (h *harness) txnFail(txn *tdb.Txn, label string, err error) error {
	txn.Abort()
	return h.opErr(label, err)
}

// pickCol chooses a collection from the fixed pool, preferring existing
// ones; the bool reports whether the transaction must create it.
func (h *harness) pickCol() (string, bool) {
	cur := h.sh.Cur()
	var existing, missing []string
	for _, c := range colPool {
		if _, ok := cur[c]; ok {
			existing = append(existing, c)
		} else {
			missing = append(missing, c)
		}
	}
	if len(existing) == 0 || (len(missing) > 0 && h.rng.Chance(0.08)) {
		return missing[h.rng.Intn(len(missing))], true
	}
	return existing[h.rng.Intn(len(existing))], false
}

func (h *harness) existingCols() []string {
	cur := h.sh.Cur()
	var cols []string
	for _, c := range colPool {
		if _, ok := cur[c]; ok {
			cols = append(cols, c)
		}
	}
	return cols
}

func (h *harness) randPad() []byte {
	pad := make([]byte, h.rng.Intn(600))
	for i := range pad {
		pad[i] = byte(h.rng.Uint64())
	}
	return pad
}

func sortedIDs(objs map[int64]ObjState) []int64 {
	ids := make([]int64, 0, len(objs))
	for id := range objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// mutateOne applies one random insert/update/delete to the handle and the
// local working view, returning the shadow op.
func (h *harness) mutateOne(hdl *tdb.Collection, col string, view map[int64]ObjState) (Op, error) {
	ids := sortedIDs(view)
	roll := h.rng.Intn(100)
	switch {
	case len(ids) == 0 || roll < 45: // insert
		id := h.nextID
		h.nextID++
		o := &Obj{ID: id, Group: h.rng.Int63n(groupSpace), Val: h.rng.Int63n(1 << 20), Pad: h.randPad()}
		if _, err := hdl.Insert(o); err != nil {
			return Op{}, fmt.Errorf("insert %s/%d: %w", col, id, err)
		}
		view[id] = o.state()
		return Op{Kind: OpPut, Col: col, ID: id, New: o.state()}, nil

	case roll < 80: // update
		id := ids[h.rng.Intn(len(ids))]
		it, err := hdl.QueryExact(byID(), tdb.IntKey(id))
		if err != nil {
			return Op{}, fmt.Errorf("update query %s/%d: %w", col, id, err)
		}
		if !it.Next() {
			it.Close()
			return Op{}, fmt.Errorf("invariant: update target %s/%d missing from byID", col, id)
		}
		o, err := tdb.WriteAs[*Obj](it)
		if err != nil {
			it.Close()
			return Op{}, fmt.Errorf("update deref %s/%d: %w", col, id, err)
		}
		o.Group = h.rng.Int63n(groupSpace)
		o.Val = h.rng.Int63n(1 << 20)
		o.Pad = h.randPad()
		if err := it.Close(); err != nil {
			return Op{}, fmt.Errorf("update close %s/%d: %w", col, id, err)
		}
		view[id] = o.state()
		return Op{Kind: OpPut, Col: col, ID: id, New: o.state()}, nil

	default: // delete
		id := ids[h.rng.Intn(len(ids))]
		it, err := hdl.QueryExact(byID(), tdb.IntKey(id))
		if err != nil {
			return Op{}, fmt.Errorf("delete query %s/%d: %w", col, id, err)
		}
		if !it.Next() {
			it.Close()
			return Op{}, fmt.Errorf("invariant: delete target %s/%d missing from byID", col, id)
		}
		if err := it.Delete(); err != nil {
			it.Close()
			return Op{}, fmt.Errorf("delete %s/%d: %w", col, id, err)
		}
		if err := it.Close(); err != nil {
			return Op{}, fmt.Errorf("delete close %s/%d: %w", col, id, err)
		}
		delete(view, id)
		return Op{Kind: OpDelete, Col: col, ID: id}, nil
	}
}

// finishCommit commits the transaction and records the outcome in the
// shadow log, holding it to the commit contract (chunkstore.Store.Commit):
// ErrMaintenance means applied as asked; ErrNotDurable means applied and
// visible but not acknowledged durable — the shadow records it as a
// nondurable commit, free to fall either side of the next crash until a
// later durable commit hardens it — and is legal only inside a failing-sync
// window, where it is also the only legal outcome of a durable commit; any
// other error means nothing was applied, which on a healthy store is a
// violation. A commit that fails because the store crashed under it is
// recorded unacknowledged — recovery decides whether it landed.
func (h *harness) finishCommit(txn *tdb.Txn, label string, ops []Op) error {
	durable := h.rng.Chance(0.5)
	err := txn.Commit(durable)
	acked, hardened := err == nil, durable
	switch {
	case err == nil:
		if durable && h.syncFailing {
			return fmt.Errorf("%s: durable commit acknowledged through a failing sync", label)
		}
	case errors.Is(err, tdb.ErrNotDurable) && durable && h.syncFailing:
		acked, hardened = true, false
		h.res.NotDurable++
	case errors.Is(err, tdb.ErrMaintenance):
		// The commit itself is applied; only post-commit maintenance
		// failed (and only a crash can make it fail here).
		acked = true
	case h.fs.Crashed():
		// Unacked: the commit may or may not have reached the log.
	case h.syncFailing && errors.Is(err, tdb.ErrIO):
		// A sync the commit needs before stage 2 (extending the IV
		// reservation after a reopen) hit the window: nothing was applied
		// and the transaction is still active. The state checks hold the
		// store to that.
		txn.Abort()
		h.tracef("%s durable=%v not applied", label, durable)
		return nil
	default:
		return fmt.Errorf("%s: commit durable=%v failed with store healthy: %w", label, durable, err)
	}
	h.sh.Record(Commit{Action: h.action, Durable: hardened, Acked: acked, Ops: ops})
	h.res.Commits++
	h.tracef("%s ops=%d durable=%v acked=%v hardened=%v", label, len(ops), durable, acked, acked && hardened)
	return nil
}

// actSyncFailWindow opens a failing-sync window on the device — every file
// sync times out, reads and writes still work — and runs 1..3 commit
// transactions through it: the durable ones must come back ErrNotDurable,
// applied and visible, and whatever the window leaves unhardened rides on
// the next durable commit, checkpoint or restart.
func (h *harness) actSyncFailWindow() error {
	n := 1 + h.rng.Intn(3)
	h.tracef("sync-fail window commits=%d", n)
	h.fs.SetSyncFailures(true)
	h.syncFailing = true
	defer func() {
		h.fs.SetSyncFailures(false)
		h.syncFailing = false
	}()
	for i := 0; i < n; i++ {
		if err := h.actCommit(); err != nil {
			return err
		}
	}
	return nil
}

// actCommit runs one read-write transaction: 1..6 random mutations on one
// collection (creating it when the pool has room), then Commit.
func (h *harness) actCommit() error {
	col, create := h.pickCol()
	txn := h.db.Begin()
	var (
		ops []Op
		hdl *tdb.Collection
		err error
	)
	if create {
		hdl, err = txn.CreateCollection(col, indexers()...)
		if err != nil {
			return h.txnFail(txn, "commit:create "+col, err)
		}
		ops = append(ops, Op{Kind: OpCreateCol, Col: col})
	} else {
		hdl, err = txn.WriteCollection(col, indexers()...)
		if err != nil {
			return h.txnFail(txn, "commit:open "+col, err)
		}
	}
	view := make(map[int64]ObjState)
	for id, st := range h.sh.Cur()[col] {
		view[id] = st
	}
	for n := 1 + h.rng.Intn(6); n > 0; n-- {
		op, err := h.mutateOne(hdl, col, view)
		if err != nil {
			if h.fs.Crashed() {
				return h.txnFail(txn, "commit:"+col, err)
			}
			txn.Abort()
			return err // mid-txn failures on a healthy store are violations
		}
		ops = append(ops, op)
	}
	return h.finishCommit(txn, "commit "+col, ops)
}

// actAbort builds a transaction like actCommit and then aborts it; nothing
// may leak into the database (the state checks prove it).
func (h *harness) actAbort() error {
	cols := h.existingCols()
	if len(cols) == 0 {
		h.tracef("abort skipped (no collections)")
		return nil
	}
	col := cols[h.rng.Intn(len(cols))]
	txn := h.db.Begin()
	hdl, err := txn.WriteCollection(col, indexers()...)
	if err != nil {
		return h.txnFail(txn, "abort:open "+col, err)
	}
	view := make(map[int64]ObjState)
	for id, st := range h.sh.Cur()[col] {
		view[id] = st
	}
	n := 1 + h.rng.Intn(4)
	for i := 0; i < n; i++ {
		if _, err := h.mutateOne(hdl, col, view); err != nil {
			if h.fs.Crashed() {
				return h.txnFail(txn, "abort:"+col, err)
			}
			txn.Abort()
			return err
		}
	}
	txn.Abort()
	h.tracef("abort %s ops=%d", col, n)
	return nil
}

// actDropCollection removes one collection (and everything in it) in its
// own transaction.
func (h *harness) actDropCollection() error {
	cols := h.existingCols()
	if len(cols) == 0 {
		h.tracef("drop skipped (no collections)")
		return nil
	}
	col := cols[h.rng.Intn(len(cols))]
	txn := h.db.Begin()
	if err := txn.RemoveCollection(col); err != nil {
		return h.txnFail(txn, "drop "+col, err)
	}
	return h.finishCommit(txn, "drop "+col, []Op{{Kind: OpRemoveCol, Col: col}})
}

// probeExact looks up one id through the byID index and returns how many
// objects matched plus the state of the last match.
func probeExact(hdl *tdb.Collection, id int64) (int, ObjState, error) {
	it, err := hdl.QueryExact(byID(), tdb.IntKey(id))
	if err != nil {
		return 0, ObjState{}, err
	}
	defer it.Close()
	n := 0
	var st ObjState
	for it.Next() {
		o, err := tdb.ReadAs[*Obj](it)
		if err != nil {
			return n, st, err
		}
		if o.ID != id {
			return n, st, fmt.Errorf("invariant: byID exact %d returned object %d", id, o.ID)
		}
		n++
		st = o.state()
	}
	return n, st, nil
}

// actScan spot-checks a few point lookups through a snapshot transaction,
// then sweeps the whole collection through a prefetching iterator while the
// cleaner (and occasionally the scrubber) churns the log underneath — the
// prefetch pipeline's epoch revalidation must deliver exactly the snapshot's
// objects no matter what relocates mid-scan. The window cycles through 0
// (prefetch disabled — the pre-pipeline behavior), 1, and the default-sized
// 32. Determinism: every random choice is drawn on the main thread before
// the sweep starts, and the sweep reads on that thread too (the iterator
// prefetches synchronously), so transient read faults stay on and reach
// the batch read path in a replayable order.
func (h *harness) actScan() error {
	cols := h.existingCols()
	if len(cols) == 0 {
		h.tracef("scan skipped (no collections)")
		return nil
	}
	col := cols[h.rng.Intn(len(cols))]
	want := h.sh.Cur()[col]
	ro := h.db.BeginReadOnly()
	defer ro.Abort()
	hdl, err := ro.ReadCollection(col)
	if err != nil {
		return h.opErr("scan:open "+col, err)
	}
	ids := sortedIDs(want)
	probes := 0
	for i := 0; i < 3 && len(ids) > 0; i++ {
		id := ids[h.rng.Intn(len(ids))]
		n, st, err := probeExact(hdl, id)
		if err != nil {
			return h.opErr(fmt.Sprintf("scan %s/%d", col, id), err)
		}
		if n != 1 || st != want[id] {
			return fmt.Errorf("invariant: scan %s/%d: got n=%d %+v, want n=1 %+v", col, id, n, st, want[id])
		}
		probes++
	}
	missing := h.nextID + 1 + int64(h.rng.Intn(1000))
	n, _, err := probeExact(hdl, missing)
	if err != nil {
		return h.opErr(fmt.Sprintf("scan %s/missing", col), err)
	}
	if n != 0 {
		return fmt.Errorf("invariant: scan %s: phantom id %d matched %d objects", col, missing, n)
	}

	// Full sweep through a prefetching iterator racing the cleaner. The
	// window cycles with the action counter rather than drawing from the
	// RNG: the sweep is deterministic either way, and not consuming a draw
	// keeps the action trace closer across versions of this action.
	window := []int{0, 1, 32}[h.action%3]
	cleanEvery := 8 + h.rng.Intn(25)
	doScrub := h.rng.Chance(0.3)

	it, err := hdl.Query(byID())
	if err != nil {
		return h.opErr("scan:query "+col, err)
	}
	defer it.Close()
	it.SetPrefetch(window)
	seen := make(map[int64]bool, len(want))
	i := 0
	for it.Next() {
		o, err := tdb.ReadAs[*Obj](it)
		if err != nil {
			return h.opErr(fmt.Sprintf("scan sweep %s@%d", col, i), err)
		}
		st, ok := want[o.ID]
		if !ok || seen[o.ID] || o.state() != st {
			return fmt.Errorf("invariant: scan sweep %s@%d: object %d wrong, duplicate, or phantom (%+v)", col, i, o.ID, o.state())
		}
		seen[o.ID] = true
		if i%cleanEvery == cleanEvery-1 {
			// Relocation pressure mid-scan: prefetched-but-unconsumed chunks
			// get moved, forcing the revalidate-and-retry path. The cleaner
			// writes, so this can crash; the sweep then just winds down.
			if err := h.db.Clean(); err != nil {
				return h.opErr("scan sweep clean", err)
			}
			if doScrub && i/cleanEvery == 1 {
				report, err := h.db.Scrub()
				if err != nil {
					return h.opErr("scan sweep scrub", err)
				}
				if !report.Clean() {
					return fmt.Errorf("invariant: mid-scan scrub dirty with no outstanding damage: bad=%v map=%v",
						report.BadIDs(), report.MapDamage)
				}
			}
		}
		i++
	}
	if len(seen) != len(want) {
		return fmt.Errorf("invariant: scan sweep %s: saw %d objects, want %d", col, len(seen), len(want))
	}
	h.tracef("scan %s probes=%d sweep=%d window=%d", col, probes, len(seen), window)
	return nil
}

// actSnapshotIsolation pins a snapshot transaction across a concurrent
// write commit and proves the snapshot still sees the pre-commit state
// while a fresh snapshot sees the post-commit state.
func (h *harness) actSnapshotIsolation() error {
	cols := h.existingCols()
	var col string
	var ids []int64
	for _, c := range cols {
		if s := sortedIDs(h.sh.Cur()[c]); len(s) > 0 {
			col, ids = c, s
			break
		}
	}
	if col == "" {
		h.tracef("snapshot-iso skipped (no objects)")
		return nil
	}
	id := ids[h.rng.Intn(len(ids))]
	before := h.sh.Cur()[col][id]

	ro := h.db.BeginReadOnly()
	defer ro.Abort()
	roh, err := ro.ReadCollection(col)
	if err != nil {
		return fmt.Errorf("snapshot-iso open %s: %w", col, err)
	}
	n, st, err := probeExact(roh, id)
	if err != nil {
		return fmt.Errorf("snapshot-iso read %s/%d: %w", col, id, err)
	}
	if n != 1 || st != before {
		return fmt.Errorf("invariant: snapshot-iso pre-read %s/%d: n=%d %+v, want %+v", col, id, n, st, before)
	}

	// Concurrent writer updates the object under the pinned snapshot.
	txn := h.db.Begin()
	hdl, err := txn.WriteCollection(col, indexers()...)
	if err != nil {
		return h.txnFail(txn, "snapshot-iso:writer", err)
	}
	it, err := hdl.QueryExact(byID(), tdb.IntKey(id))
	if err != nil {
		return h.txnFail(txn, "snapshot-iso:writer query", err)
	}
	if !it.Next() {
		it.Close()
		txn.Abort()
		return fmt.Errorf("invariant: snapshot-iso writer: %s/%d missing", col, id)
	}
	o, err := tdb.WriteAs[*Obj](it)
	if err != nil {
		it.Close()
		return h.txnFail(txn, "snapshot-iso:writer deref", err)
	}
	o.Val = h.rng.Int63n(1 << 20)
	o.Pad = h.randPad()
	if err := it.Close(); err != nil {
		return h.txnFail(txn, "snapshot-iso:writer close", err)
	}
	after := o.state()
	if err := h.finishCommit(txn, "snapshot-iso commit "+col, []Op{{Kind: OpPut, Col: col, ID: id, New: after}}); err != nil {
		return err
	}

	// The pinned snapshot must still see the old state.
	n, st, err = probeExact(roh, id)
	if err != nil {
		return fmt.Errorf("snapshot-iso re-read %s/%d: %w", col, id, err)
	}
	if n != 1 || st != before {
		return fmt.Errorf("invariant: snapshot saw concurrent commit on %s/%d: got %+v, want pinned %+v", col, id, st, before)
	}
	ro.Abort()

	// A fresh snapshot sees the new state.
	ro2 := h.db.BeginReadOnly()
	defer ro2.Abort()
	roh2, err := ro2.ReadCollection(col)
	if err != nil {
		return fmt.Errorf("snapshot-iso fresh open %s: %w", col, err)
	}
	n, st, err = probeExact(roh2, id)
	if err != nil {
		return fmt.Errorf("snapshot-iso fresh read %s/%d: %w", col, id, err)
	}
	if n != 1 || st != after {
		return fmt.Errorf("invariant: fresh snapshot on %s/%d: got %+v, want %+v", col, id, st, after)
	}
	h.tracef("snapshot-iso %s/%d held", col, id)
	return nil
}

// actReadStorm races concurrent snapshot readers against cleaner and
// checkpoint passes on the main thread, exercising the off-mutex read path's
// stamp revalidation (a reader that planned against a record the cleaner
// relocates mid-read must retry, never return wrong data or a spurious
// error). Determinism: every random choice — reader count, probe sequences —
// is drawn on the main thread before the readers start, and read-fault
// injection is switched off for the storm's duration because FaultStore
// reads consume injector RNG draws only when the read probability is
// nonzero; with it zeroed, the concurrently scheduled reads leave the fault
// stream untouched and the single-threaded write draws stay reproducible.
func (h *harness) actReadStorm() error {
	cols := h.existingCols()
	var col string
	var ids []int64
	for _, c := range cols {
		if s := sortedIDs(h.sh.Cur()[c]); len(s) > 0 {
			col, ids = c, s
			break
		}
	}
	if col == "" {
		h.tracef("read-storm skipped (no objects)")
		return nil
	}
	want := make(map[int64]ObjState, len(ids))
	for id, st := range h.sh.Cur()[col] {
		want[id] = st
	}
	readers := 2 + h.rng.Intn(3)
	perReader := 8 + h.rng.Intn(9)
	probes := make([][]int64, readers)
	for r := range probes {
		seq := make([]int64, perReader)
		for i := range seq {
			seq[i] = ids[h.rng.Intn(len(ids))]
		}
		probes[r] = seq
	}
	h.fs.SetTransientProb(0, 0.01, 1)
	defer h.fs.SetTransientProb(0.01, 0.01, 1)

	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, id := range probes[r] {
				ro := h.db.BeginReadOnly()
				hdl, err := ro.ReadCollection(col)
				if err != nil {
					ro.Abort()
					errs[r] = fmt.Errorf("read-storm open %s: %w", col, err)
					return
				}
				n, st, err := probeExact(hdl, id)
				ro.Abort()
				if err != nil {
					errs[r] = fmt.Errorf("read-storm %s/%d: %w", col, id, err)
					return
				}
				if n != 1 || st != want[id] {
					errs[r] = fmt.Errorf("invariant: read-storm %s/%d: got n=%d %+v, want n=1 %+v", col, id, n, st, want[id])
					return
				}
			}
		}(r)
	}
	// Relocation pressure while the readers run: the cleaner moves live
	// records between segments and the checkpoint rewrites map nodes, so
	// in-flight reads keep landing on the revalidate-and-retry path. The
	// main thread mutates no object state, so the captured want-states stay
	// authoritative for the storm's whole duration.
	var mainErr error
	for i := 0; i < 3; i++ {
		if mainErr = h.db.Clean(); mainErr != nil {
			mainErr = fmt.Errorf("read-storm clean: %w", mainErr)
			break
		}
		if mainErr = h.db.Checkpoint(); mainErr != nil {
			mainErr = fmt.Errorf("read-storm checkpoint: %w", mainErr)
			break
		}
	}
	wg.Wait()
	if mainErr != nil {
		return h.opErr("read-storm", mainErr)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	h.res.ReadStorms++
	h.tracef("read-storm %s readers=%d probes=%d", col, readers, perReader)
	return nil
}

// actBackup writes a full or incremental backup and snapshots the shadow
// state the archive chain now reproduces.
func (h *harness) actBackup() error {
	full := !h.haveBackup || h.rng.Chance(0.5)
	kind := "incr"
	var err error
	if full {
		kind = "full"
		_, err = h.db.BackupFull()
	} else {
		_, err = h.db.BackupIncremental()
	}
	if err != nil {
		return fmt.Errorf("backup %s: %w", kind, err)
	}
	h.haveBackup = true
	h.lastBackup = h.sh.Cur().Clone()
	h.res.Backups++
	h.tracef("backup %s", kind)
	return nil
}

// actRestoreCheck rebuilds a throwaway database from the archive chain and
// proves it reproduces the state as of the newest backup.
func (h *harness) actRestoreCheck() error {
	if !h.haveBackup {
		h.tracef("restore-check skipped (no backup)")
		return nil
	}
	opts := h.opts
	opts.Store = platform.NewMemStore()
	opts.Counter = platform.NewMemCounter()
	db2, err := tdb.Restore(opts, h.arch)
	if err != nil {
		return fmt.Errorf("invariant: restore from valid chain failed: %w", err)
	}
	st, err := scanState(db2)
	if err != nil {
		db2.Close()
		return fmt.Errorf("restore-check scan: %w", err)
	}
	if st.Digest() != h.lastBackup.Digest() {
		db2.Close()
		return fmt.Errorf("invariant: restore diverges from backup state: %s", h.lastBackup.Diff(st))
	}
	if err := db2.Close(); err != nil {
		return fmt.Errorf("restore-check close: %w", err)
	}
	h.res.Restores++
	h.tracef("restore-check ok")
	return nil
}

func (h *harness) actCheckpoint() error {
	if err := h.opErr("checkpoint", h.db.Checkpoint()); err != nil {
		return err
	}
	if !h.fs.Crashed() {
		h.tracef("checkpoint ok")
	}
	return nil
}

func (h *harness) actClean() error {
	if err := h.opErr("clean", h.db.Clean()); err != nil {
		return err
	}
	if !h.fs.Crashed() {
		h.tracef("clean ok")
	}
	return nil
}

// actScrub proves a store with no outstanding injected damage scrubs clean.
func (h *harness) actScrub() error {
	report, err := h.db.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if !report.Clean() {
		return fmt.Errorf("invariant: scrub dirty with no outstanding damage: bad=%v map=%v",
			report.BadIDs(), report.MapDamage)
	}
	h.tracef("scrub clean")
	return nil
}

// actFullCheck runs the whole-database invariant suite.
func (h *harness) actFullCheck() error {
	if err := h.checkFull(); err != nil {
		return err
	}
	h.tracef("full-check ok")
	return nil
}

// actRestart closes the database cleanly and reopens it: everything
// acknowledged — durable or not — must survive a clean shutdown.
func (h *harness) actRestart() error {
	if err := h.db.Close(); err != nil {
		return fmt.Errorf("clean close: %w", err)
	}
	db, err := tdb.Open(h.opts)
	if err != nil {
		return fmt.Errorf("reopen after clean close: %w", err)
	}
	h.db = db
	h.sh.Collapse(h.sh.Cur())
	h.res.Restarts++
	h.tracef("restart clean")
	return h.checkFull()
}

// storeFiles reads every file of the fault store (probabilistic faults are
// expected to be off while this runs).
func (h *harness) storeFiles() (map[string][]byte, []string, error) {
	names, err := h.fs.List()
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	files := make(map[string][]byte, len(names))
	for _, name := range names {
		f, err := h.fs.Open(name)
		if err != nil {
			return nil, nil, fmt.Errorf("open %q: %w", name, err)
		}
		size, err := f.Size()
		if err == nil && size > 0 {
			buf := make([]byte, size)
			if _, rerr := f.ReadAt(buf, 0); rerr != nil && rerr != io.EOF {
				err = rerr
			} else {
				files[name] = buf
			}
		}
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("read %q: %w", name, err)
		}
	}
	return files, names, nil
}

// actRotStorm injects detectable, repairable at-rest bit-rot: checkpoint +
// full backup (so every live chunk is covered), close, flip bits inside the
// stored ciphertexts of 1..3 live chunks, reopen, and require Scrub to
// report exactly the victims, Repair to heal them all from the archive, and
// the data to read back intact. If the rot lands somewhere that makes the
// reopen itself fail validation, the detection already happened — the storm
// falls back to a full restore switch-over.
func (h *harness) actRotStorm() error {
	if err := h.db.Checkpoint(); err != nil {
		return fmt.Errorf("storm checkpoint: %w", err)
	}
	if _, err := h.db.BackupFull(); err != nil {
		return fmt.Errorf("storm backup: %w", err)
	}
	h.haveBackup = true
	h.lastBackup = h.sh.Cur().Clone()
	h.res.Backups++

	sn, err := h.db.Chunks().TakeSnapshot()
	if err != nil {
		return fmt.Errorf("storm snapshot: %w", err)
	}
	cts := map[tdb.ChunkID][]byte{}
	err = sn.ForEach(func(cid tdb.ChunkID, hash, ciphertext []byte) error {
		cts[cid] = append([]byte(nil), ciphertext...)
		return nil
	})
	sn.Close()
	if err != nil {
		return fmt.Errorf("storm snapshot walk: %w", err)
	}
	var cands []tdb.ChunkID
	for cid := range cts {
		// The lowest ids are bootstrap chunks (object-store root pointer)
		// read during open; rotting those turns the storm into an open
		// failure every time instead of a scrub exercise.
		if cid > 2 {
			cands = append(cands, cid)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	if len(cands) == 0 {
		h.tracef("rot-storm skipped (no eligible chunks)")
		return nil
	}
	nVictims := 1 + h.rng.Intn(3)
	if nVictims > len(cands) {
		nVictims = len(cands)
	}
	victimSet := map[tdb.ChunkID]bool{}
	for len(victimSet) < nVictims {
		victimSet[cands[h.rng.Intn(len(cands))]] = true
	}

	if err := h.db.Close(); err != nil {
		return fmt.Errorf("storm close: %w", err)
	}
	h.db = nil
	// The attacker edits bytes at rest: silence the device's own
	// background noise while the files are searched and flipped.
	h.fs.SetTransientProb(0, 0, 0)
	defer h.fs.SetTransientProb(0.01, 0.01, 1)

	files, names, err := h.storeFiles()
	if err != nil {
		return fmt.Errorf("storm read store: %w", err)
	}
	var victims []tdb.ChunkID
	for _, cid := range sortedChunkIDs(victimSet) {
		ct := cts[cid]
		// A relocation (cleaner compaction, damage evacuation) leaves stale
		// verbatim copies of the record in dead log space, and a byte search
		// cannot tell which copy the location map references — so every copy
		// gets the same flipped bit. The live one is guaranteed to be among
		// them; the stale ones sit in space nothing dereferences.
		rel := h.rng.Intn(len(ct))
		bit := uint(h.rng.Intn(8))
		found := 0
		for _, name := range names {
			data := files[name]
			for i := 0; ; {
				j := bytes.Index(data[i:], ct)
				if j < 0 {
					break
				}
				if err := h.fs.FlipBit(name, int64(i+j+rel), bit); err != nil {
					return fmt.Errorf("storm flip chunk %d: %w", cid, err)
				}
				found++
				i += j + len(ct)
			}
		}
		if found == 0 {
			return fmt.Errorf("storm: ciphertext of live chunk %d not found in store files", cid)
		}
		victims = append(victims, cid)
	}
	h.res.Storms++

	db, err := tdb.Open(h.opts)
	if err != nil {
		if !errors.Is(err, tdb.ErrTampered) {
			return fmt.Errorf("storm reopen failed without tamper detection: %w", err)
		}
		h.tracef("rot-storm victims=%v detected at open, restoring", victims)
		return h.restoreSwitchOver("rot storm broke open")
	}
	h.db = db

	report, err := h.db.Scrub()
	if err != nil {
		return fmt.Errorf("storm scrub: %w", err)
	}
	if got, want := fmt.Sprint(report.BadIDs()), fmt.Sprint(victims); got != want {
		return fmt.Errorf("invariant: storm scrub found %v, want exactly %v (map damage %v)",
			report.BadIDs(), victims, report.MapDamage)
	}
	if len(report.MapDamage) != 0 {
		return fmt.Errorf("invariant: storm hit map chunks unexpectedly: %v", report.MapDamage)
	}
	res, err := h.db.Repair(report)
	if err != nil {
		return fmt.Errorf("storm repair: %w", err)
	}
	if got, want := fmt.Sprint(res.Healed), fmt.Sprint(victims); got != want || len(res.Unrepairable) != 0 {
		return fmt.Errorf("invariant: repair healed %v (unrepairable %v), want %v",
			res.Healed, res.Unrepairable, victims)
	}
	if !res.Report.Clean() {
		return fmt.Errorf("invariant: post-repair scrub dirty: bad=%v map=%v",
			res.Report.BadIDs(), res.Report.MapDamage)
	}
	h.sh.Collapse(h.sh.Cur())
	h.tracef("rot-storm victims=%v healed", victims)
	return h.checkFull()
}

func sortedChunkIDs(set map[tdb.ChunkID]bool) []tdb.ChunkID {
	ids := make([]tdb.ChunkID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// restoreSwitchOver abandons the damaged store generation and rebuilds the
// database from the archive chain into a fresh one. The shadow rewinds to
// the newest backup — that rewind is the documented semantics of a restore,
// not data loss the oracle tolerates silently.
func (h *harness) restoreSwitchOver(reason string) error {
	if !h.haveBackup {
		return fmt.Errorf("switch-over (%s) without a backup", reason)
	}
	h.db = nil
	h.gen++
	if err := h.freshStore(); err != nil {
		return fmt.Errorf("switch-over (%s): %w", reason, err)
	}
	db, err := tdb.Restore(h.opts, h.arch)
	if err != nil {
		return fmt.Errorf("invariant: switch-over restore (%s) failed: %w", reason, err)
	}
	h.db = db
	h.res.Restores++
	h.sh.Collapse(h.lastBackup)
	h.tracef("restore switch-over gen=%d", h.gen)
	return h.checkFull()
}

// actOfflineTamper closes the database and flips one random bit in the
// superblock or the emulated one-way counter. The redundant on-disk layout
// may tolerate the flip (state must then be fully intact) or reject it —
// in which case the failure must be ErrTampered, never silence, and
// reverting the flip must bring the database back.
func (h *harness) actOfflineTamper() error {
	if err := h.db.Close(); err != nil {
		return fmt.Errorf("tamper close: %w", err)
	}
	h.db = nil
	h.fs.SetTransientProb(0, 0, 0)
	defer h.fs.SetTransientProb(0.01, 0.01, 1)

	target := "superblock"
	if h.rng.Chance(0.5) {
		target = "counter"
	}
	f, err := h.fs.Open(target)
	if err != nil {
		return fmt.Errorf("tamper open %q: %w", target, err)
	}
	size, err := f.Size()
	f.Close()
	if err != nil {
		return fmt.Errorf("tamper size %q: %w", target, err)
	}
	if size == 0 {
		h.tracef("offline-tamper skipped (%s empty)", target)
		db, err := tdb.Open(h.opts)
		if err != nil {
			return fmt.Errorf("reopen after skipped tamper: %w", err)
		}
		h.db = db
		return nil
	}
	off := h.rng.Int63n(size)
	bit := uint(h.rng.Intn(8))
	if err := h.fs.FlipBit(target, off, bit); err != nil {
		return fmt.Errorf("tamper flip %q: %w", target, err)
	}
	h.res.TamperChecks++

	db, err := tdb.Open(h.opts)
	if err == nil {
		// Redundancy (superblock slot pair, counter slot pair) absorbed
		// the flip: nothing may be silently wrong.
		h.db = db
		h.sh.Collapse(h.sh.Cur())
		h.tracef("offline-tamper %s tolerated", target)
		return h.checkFull()
	}
	if !errors.Is(err, tdb.ErrTampered) {
		return fmt.Errorf("invariant: offline tamper of %s failed open without ErrTampered: %w", target, err)
	}
	// Detected. Reverting the flip must restore the database.
	if err := h.fs.FlipBit(target, off, bit); err != nil {
		return fmt.Errorf("tamper unflip %q: %w", target, err)
	}
	db, err = tdb.Open(h.opts)
	if err != nil {
		return fmt.Errorf("invariant: reopen after reverting %s tamper failed: %w", target, err)
	}
	h.db = db
	h.sh.Collapse(h.sh.Cur())
	h.tracef("offline-tamper %s detected", target)
	return h.checkFull()
}
