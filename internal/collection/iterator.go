package collection

import (
	"bytes"
	"errors"
	"fmt"

	"tdb/internal/objectstore"
)

// Iterator enumerates a query's result set (paper §5.1.2, §5.2.2). TDB's
// iterators are insensitive: the application does not see the effects of
// its own updates until the iterator is closed. The store enforces the
// paper's constraints:
//
//  1. writable object references exist only through iterators (CTransaction
//     offers no direct object access),
//  2. no other iterator on the collection may be open when this one is
//     dereferenced writable,
//  3. iterators advance in a single direction,
//  4. index maintenance is deferred until the iterator closes — which also
//     prevents the Halloween syndrome.
//
// The result set (the matching object ids) is fixed when the query runs;
// objects themselves are opened lazily, read-only or writable, as the
// application dereferences.
type Iterator struct {
	h *Handle
	// oids is the materialized result set; one backs it while it holds at
	// most one id, so a point lookup's result costs no allocation.
	oids []objectstore.ObjectID
	one  [1]objectstore.ObjectID
	// pos is the current position; -1 before the first Next.
	pos int
	// updates records writable-dereferenced objects with their pre-update
	// key snapshots (paper §5.2.3: "the snapshots are created prior to
	// returning a writable reference").
	updates map[objectstore.ObjectID]*updateRec
	// order preserves update processing order for determinism.
	order []objectstore.ObjectID
	// deletes records deferred deletions.
	deletes map[objectstore.ObjectID]*updateRec
	closed  bool

	// prefetch is the window depth hinted ahead of the cursor; 0 disables.
	// pfNext is the prefetch frontier: the first position not yet hinted.
	// The result set is the whole prefetch plan, so the cursor reaching the
	// frontier is the only trigger a scan needs (see Next).
	prefetch int
	pfNext   int
}

// updateRec tracks one dereferenced object.
type updateRec struct {
	obj     objectstore.Object
	preKeys [][]byte
}

// newIterator materializes a result set.
func (h *Handle) newIterator(collect func(fn func(objectstore.ObjectID) error) error) (*Iterator, error) {
	var oids []objectstore.ObjectID
	if err := collect(func(oid objectstore.ObjectID) error {
		oids = append(oids, oid)
		return nil
	}); err != nil {
		return nil, err
	}
	it := h.openIterator()
	it.oids = oids
	return it, nil
}

// openIterator opens an iterator with an empty result set. updates and
// deletes allocate lazily on first use: read-only scans — the overwhelmingly
// common case — never touch either map.
func (h *Handle) openIterator() *Iterator {
	h.openIters++
	return &Iterator{h: h, pos: -1, prefetch: defaultScanPrefetch}
}

// defaultScanPrefetch is the sliding-window depth an iterator prefetches
// ahead of its cursor unless SetPrefetch says otherwise.
const defaultScanPrefetch = 32

// SetPrefetch overrides the scan-prefetch window for this iterator: n
// objects are fetched, validated, and decrypted ahead of the cursor. 0
// disables prefetching and reproduces the point-read scan exactly; negative
// restores the default (32). Effective only before the first Next; later
// calls are ignored.
func (it *Iterator) SetPrefetch(n int) {
	if it.pos >= 0 {
		return
	}
	if n < 0 {
		n = defaultScanPrefetch
	}
	it.prefetch = n
}

// Next advances to the next result; it returns false when the result set is
// exhausted. Iterators are unidirectional (§5.2.2 constraint 3): there is
// no way back.
//
// When the cursor reaches the prefetch frontier, Next hints the next full
// window — the objects after the cursor — through Txn.Prefetch on the
// caller's goroutine, so the chunk store can coalesce physically adjacent
// records into single segment reads before the dereferences that follow.
func (it *Iterator) Next() bool {
	if it.closed || it.pos+1 >= len(it.oids) {
		if !it.closed {
			it.pos = len(it.oids)
		}
		return false
	}
	it.pos++
	if it.prefetch > 0 && it.pos+1 >= it.pfNext && it.pos+1 < len(it.oids) {
		it.pfNext = min(it.pos+it.prefetch+1, len(it.oids))
		it.h.ct.t.Prefetch(it.oids[it.pos+1 : it.pfNext])
	}
	return true
}

// Len returns the size of the result set.
func (it *Iterator) Len() int { return len(it.oids) }

// ID returns the current object id.
func (it *Iterator) ID() (objectstore.ObjectID, error) {
	if it.closed {
		return objectstore.NilObject, ErrIteratorClosed
	}
	if it.pos < 0 || it.pos >= len(it.oids) {
		return objectstore.NilObject, fmt.Errorf("collection: iterator not positioned on a result")
	}
	return it.oids[it.pos], nil
}

// Read dereferences the current object read-only.
func (it *Iterator) Read() (objectstore.Object, error) {
	oid, err := it.ID()
	if err != nil {
		return nil, err
	}
	return it.h.ct.t.OpenReadonly(oid)
}

// Write dereferences the current object writable. Mutations made through
// the returned object are persisted at commit; affected indexes are updated
// when the iterator closes (§5.2.3).
func (it *Iterator) Write() (objectstore.Object, error) {
	oid, err := it.ID()
	if err != nil {
		return nil, err
	}
	if !it.h.writable {
		return nil, fmt.Errorf("%w: %q", ErrReadonlyCollection, it.h.col.Name)
	}
	// Constraint 2: no other iterators may be open on this collection.
	if it.h.openIters > 1 {
		return nil, fmt.Errorf("%w: writable dereference with %d iterators open on %q",
			ErrIteratorOpen, it.h.openIters, it.h.col.Name)
	}
	if rec, done := it.updates[oid]; done {
		return rec.obj, nil
	}
	obj, err := it.h.ct.t.OpenWritable(oid)
	if err != nil {
		return nil, err
	}
	// Snapshot the pre-update keys, except for indexes whose keys the
	// application declared immutable (§5.2.3's storage optimization): those
	// are represented by a nil snapshot and skipped at close.
	preKeys, err := it.h.extractMutableKeys(obj)
	if err != nil {
		return nil, err
	}
	if it.updates == nil {
		it.updates = make(map[objectstore.ObjectID]*updateRec)
	}
	it.updates[oid] = &updateRec{obj: obj, preKeys: preKeys}
	it.order = append(it.order, oid)
	return obj, nil
}

// Delete removes the current object from the collection (and the object
// store) when the iterator closes.
func (it *Iterator) Delete() error {
	oid, err := it.ID()
	if err != nil {
		return err
	}
	if !it.h.writable {
		return fmt.Errorf("%w: %q", ErrReadonlyCollection, it.h.col.Name)
	}
	if it.h.openIters > 1 {
		return fmt.Errorf("%w: delete with %d iterators open on %q", ErrIteratorOpen, it.h.openIters, it.h.col.Name)
	}
	if _, dup := it.deletes[oid]; dup {
		return nil
	}
	obj, err := it.h.ct.t.OpenWritable(oid)
	if err != nil {
		return err
	}
	// Prefer the pre-update snapshot if the object was already
	// write-dereferenced (its current keys may differ from the indexed
	// ones). Immutable-key indexes have nil snapshots; their keys are
	// extracted fresh (unchanged by declaration).
	var preKeys [][]byte
	if rec, ok := it.updates[oid]; ok {
		preKeys = make([][]byte, len(rec.preKeys))
		copy(preKeys, rec.preKeys)
	} else {
		preKeys = make([][]byte, len(it.h.col.Indexes))
	}
	for i := range preKeys {
		if preKeys[i] == nil {
			k, err := it.h.extractIndexKey(i, obj)
			if err != nil {
				return err
			}
			preKeys[i] = k
		}
	}
	if it.deletes == nil {
		it.deletes = make(map[objectstore.ObjectID]*updateRec)
	}
	it.deletes[oid] = &updateRec{obj: obj, preKeys: preKeys}
	return nil
}

// ReadAs dereferences the current object read-only with a typed assertion.
func ReadAs[T objectstore.Object](it *Iterator) (T, error) {
	var zero T
	obj, err := it.Read()
	if err != nil {
		return zero, err
	}
	typed, ok := obj.(T)
	if !ok {
		return zero, fmt.Errorf("%w: result object is %T", objectstore.ErrWrongClass, obj)
	}
	return typed, nil
}

// WriteAs dereferences the current object writable with a typed assertion.
func WriteAs[T objectstore.Object](it *Iterator) (T, error) {
	var zero T
	obj, err := it.Write()
	if err != nil {
		return zero, err
	}
	typed, ok := obj.(T)
	if !ok {
		return zero, fmt.Errorf("%w: result object is %T", objectstore.ErrWrongClass, obj)
	}
	return typed, nil
}

// Close performs the deferred index maintenance (paper §5.2.3): for each
// deleted object its index entries are removed; for each updated object the
// pre-update key snapshots are compared to keys extracted from the updated
// object, and only changed indexes are touched. Updates that would create
// duplicates in a unique index remove the violating object from the
// collection and report it in a UniqueViolationError so the application can
// re-integrate it (the object itself remains readable in the object store
// until the transaction ends).
func (it *Iterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.h.openIters--

	t := it.h.ct.t
	// Deletions first.
	for oid, rec := range it.deletes {
		for i := range it.h.col.Indexes {
			if err := it.h.indexOpsAt(i).remove(rec.preKeys[i], oid); err != nil {
				return err
			}
		}
		if err := t.Remove(oid); err != nil {
			return err
		}
		it.h.col.Size--
	}

	var violation *UniqueViolationError
	for _, oid := range it.order {
		if _, deleted := it.deletes[oid]; deleted {
			continue
		}
		rec := it.updates[oid]
		postKeys, err := it.h.extractMutableKeys(rec.obj)
		if err != nil {
			return err
		}
		// curKeys tracks what each index currently holds for this object as
		// we apply changes, so a violation can cleanly undo membership.
		curKeys := make([][]byte, len(rec.preKeys))
		copy(curKeys, rec.preKeys)
		violated := -1
		for i := range it.h.col.Indexes {
			if rec.preKeys[i] == nil {
				continue // immutable key: no maintenance by declaration
			}
			if bytes.Equal(rec.preKeys[i], postKeys[i]) {
				continue
			}
			ops := it.h.indexOpsAt(i)
			if err := ops.remove(rec.preKeys[i], oid); err != nil {
				return err
			}
			curKeys[i] = nil
			if err := ops.insert(postKeys[i], oid); err != nil {
				if isDuplicateKey(err) {
					violated = i
					break
				}
				return err
			}
			curKeys[i] = postKeys[i]
		}
		if violated >= 0 {
			// Remove the object from the collection entirely (§5.2.3).
			for i := range it.h.col.Indexes {
				key := curKeys[i]
				if key == nil && rec.preKeys[i] == nil && i != violated {
					// Immutable index: extract the (unchanged) key now.
					var err error
					key, err = it.h.extractIndexKey(i, rec.obj)
					if err != nil {
						return err
					}
				}
				if key == nil {
					continue
				}
				if err := it.h.indexOpsAt(i).remove(key, oid); err != nil {
					return err
				}
			}
			it.h.col.Size--
			if violation == nil {
				violation = &UniqueViolationError{Index: it.h.col.Indexes[violated].Name}
			}
			violation.Removed = append(violation.Removed, oid)
		}
	}
	if violation != nil {
		return violation
	}
	return nil
}

// isDuplicateKey unwraps ErrDuplicateKey.
func isDuplicateKey(err error) bool {
	return errors.Is(err, ErrDuplicateKey)
}
