package collection

import (
	"fmt"
	"slices"

	"tdb/internal/objectstore"
)

// Store is the collection store, layered over an object store whose root
// object it owns (the catalog of named collections). Applications using the
// collection store perform all object access through CTransaction and
// iterators — never through the object store directly — which is the
// paper's first insensitivity constraint (§5.2.2: "writable references to
// objects in collections cannot be obtained via any other means than
// dereferencing an iterator").
type Store struct {
	os *objectstore.Store
}

// NewStore attaches a collection store to an object store, creating the
// collection catalog if the database is fresh. RegisterClasses must have
// been called on the object store's registry.
func NewStore(os *objectstore.Store) (*Store, error) {
	s := &Store{os: os}
	if os.Root() == objectstore.NilObject {
		t := os.Begin()
		oid, err := t.Insert(&catalogObject{})
		if err != nil {
			t.Abort()
			return nil, err
		}
		if err := t.SetRoot(oid); err != nil {
			t.Abort()
			return nil, err
		}
		if err := t.Commit(true); err != nil {
			t.Abort()
			return nil, err
		}
	}
	return s, nil
}

// ObjectStore exposes the underlying object store (backups, stats).
func (s *Store) ObjectStore() *objectstore.Store { return s.os }

// Begin starts a collection transaction (the paper's CTransaction, Figure
// 5).
func (s *Store) Begin() *CTransaction {
	return &CTransaction{s: s, t: s.os.Begin()}
}

// BeginReadOnly starts a snapshot collection transaction: queries and
// scans observe the committed state as of the latest commit, take no
// object locks, never block on writers, and never fail with
// objectstore.ErrLockTimeout. Mutations fail with
// objectstore.ErrReadOnlyTxn.
func (s *Store) BeginReadOnly() *CTransaction {
	return &CTransaction{s: s, t: s.os.BeginReadOnly()}
}

// CTransaction is a transaction over collections (paper Figure 5).
type CTransaction struct {
	s *Store
	t *objectstore.Txn
	// handles holds the collections opened so far: a transaction opens a
	// handful, so a scan by name beats a map and costs nothing until the
	// first open.
	handles []*Handle
}

// handle returns the transaction's open handle on the named collection, or
// nil.
func (ct *CTransaction) handle(name string) *Handle {
	for _, h := range ct.handles {
		if h.col.Name == name {
			return h
		}
	}
	return nil
}

// openCatalog opens the catalog object. The root pointer comes from the
// transaction, so a snapshot transaction resolves the catalog as of its
// pinned stamp.
func (ct *CTransaction) openCatalog(writable bool) (*catalogObject, error) {
	root, err := ct.t.Root()
	if err != nil {
		return nil, err
	}
	return openAs[*catalogObject](ct.t, root, writable)
}

// Commit commits the transaction in the given durability mode. All
// iterators must have been closed: their deferred index maintenance runs at
// close (§5.2.3), so committing past an open iterator would persist
// un-maintained indexes.
func (ct *CTransaction) Commit(durable bool) error {
	for _, h := range ct.handles {
		if h.openIters > 0 {
			return fmt.Errorf("%w: close iterators on %q before commit", ErrIteratorOpen, h.col.Name)
		}
	}
	return ct.t.Commit(durable)
}

// Abort undoes the transaction, discarding updates, inserts, removals, and
// any un-closed iterators' pending maintenance.
func (ct *CTransaction) Abort() { ct.t.Abort() }

// Handle is a reference to a named collection within a transaction (the
// paper's Ref<Collection>). Writable handles allow inserts, deletes,
// updates through iterators, and index DDL.
type Handle struct {
	ct       *CTransaction
	oid      objectstore.ObjectID
	col      *collectionObject
	writable bool
	// indexers holds the extractor bound to each index slot, parallel to
	// col.Indexes; nil where none is bound.
	indexers []GenericIndexer
	// openIters counts open iterators on this collection in this
	// transaction (insensitivity constraint 2, §5.2.2).
	openIters int
}

// CreateCollection creates a new named collection with one or more indexes
// and returns a writable reference (paper Figure 5 creates with a single
// index; more can be created immediately or later).
func (ct *CTransaction) CreateCollection(name string, indexers ...GenericIndexer) (*Handle, error) {
	if len(indexers) == 0 {
		return nil, fmt.Errorf("collection: a collection requires at least one index")
	}
	cat, err := ct.openCatalog(true)
	if err != nil {
		return nil, err
	}
	if _, exists := cat.find(name); exists {
		return nil, fmt.Errorf("%w: %q", ErrCollectionExists, name)
	}
	col := &collectionObject{Name: name}
	for _, ix := range indexers {
		if _, dup := col.findIndex(ix.Name()); dup {
			return nil, fmt.Errorf("%w: %q", ErrIndexExists, ix.Name())
		}
		root, err := createIndexRoot(ct.t, ix.Kind())
		if err != nil {
			return nil, err
		}
		col.Indexes = append(col.Indexes, indexDesc{
			Name:   ix.Name(),
			Unique: ix.Unique(),
			Kind:   ix.Kind(),
			Root:   root,
		})
	}
	oid, err := ct.t.Insert(col)
	if err != nil {
		return nil, err
	}
	cat.put(name, oid)
	h := &Handle{ct: ct, oid: oid, col: col, writable: true, indexers: slices.Clone(indexers)}
	ct.handles = append(ct.handles, h)
	return h, nil
}

// createIndexRoot builds an empty index structure of the given kind.
func createIndexRoot(t *objectstore.Txn, kind IndexKind) (objectstore.ObjectID, error) {
	switch kind {
	case BTree:
		return btCreate(t)
	case HashTable:
		return hashCreate(t)
	case List:
		return listCreate(t)
	default:
		return objectstore.NilObject, fmt.Errorf("collection: unknown index kind %v", kind)
	}
}

// ReadCollection returns a read-only reference to an existing collection.
// Indexers used for querying are matched by name against the collection's
// persistent index descriptions.
func (ct *CTransaction) ReadCollection(name string, indexers ...GenericIndexer) (*Handle, error) {
	return ct.openCollection(name, false, indexers)
}

// WriteCollection returns a writable reference to an existing collection.
// An indexer must be supplied for every index on the collection: mutations
// need every extractor function for automatic index maintenance.
func (ct *CTransaction) WriteCollection(name string, indexers ...GenericIndexer) (*Handle, error) {
	return ct.openCollection(name, true, indexers)
}

func (ct *CTransaction) openCollection(name string, writable bool, indexers []GenericIndexer) (*Handle, error) {
	if h := ct.handle(name); h != nil {
		// Re-opening within the transaction: merge indexers, upgrade mode.
		for _, ix := range indexers {
			if _, err := h.bindIndexer(ix); err != nil {
				return nil, err
			}
		}
		if writable && !h.writable {
			col, err := openAs[*collectionObject](ct.t, h.oid, true)
			if err != nil {
				return nil, err
			}
			h.col = col
			h.writable = true
		}
		if writable {
			if err := h.requireAllIndexers(); err != nil {
				return nil, err
			}
		}
		return h, nil
	}
	cat, err := ct.openCatalog(false)
	if err != nil {
		return nil, err
	}
	oid, ok := cat.find(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchCollection, name)
	}
	col, err := openAs[*collectionObject](ct.t, oid, writable)
	if err != nil {
		return nil, err
	}
	h := &Handle{ct: ct, oid: oid, col: col, writable: writable, indexers: make([]GenericIndexer, len(col.Indexes))}
	for _, ix := range indexers {
		if _, err := h.bindIndexer(ix); err != nil {
			return nil, err
		}
	}
	if writable {
		if err := h.requireAllIndexers(); err != nil {
			return nil, err
		}
	}
	ct.handles = append(ct.handles, h)
	return h, nil
}

// RemoveCollection removes a named collection along with all objects
// previously inserted into it (paper Figure 5). Extractors are not needed:
// removal drops whole index structures.
func (ct *CTransaction) RemoveCollection(name string) error {
	cat, err := ct.openCatalog(true)
	if err != nil {
		return err
	}
	oid, ok := cat.find(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchCollection, name)
	}
	col, err := openAs[*collectionObject](ct.t, oid, true)
	if err != nil {
		return err
	}
	h := &Handle{ct: ct, oid: oid, col: col, writable: true, indexers: make([]GenericIndexer, len(col.Indexes))}
	open := ct.handle(name)
	if open != nil && open.openIters > 0 {
		return fmt.Errorf("%w: %q", ErrIteratorOpen, name)
	}
	// Remove member objects via a scan of the first index.
	var members []objectstore.ObjectID
	if err := h.indexOpsAt(0).scan(func(m objectstore.ObjectID) error {
		members = append(members, m)
		return nil
	}); err != nil {
		return err
	}
	for _, m := range members {
		if err := ct.t.Remove(m); err != nil {
			return err
		}
	}
	for i := range col.Indexes {
		if err := h.indexOpsAt(i).destroy(); err != nil {
			return err
		}
	}
	if err := ct.t.Remove(oid); err != nil {
		return err
	}
	cat.remove(name)
	ct.handles = slices.DeleteFunc(ct.handles, func(h2 *Handle) bool { return h2 == open })
	return nil
}

// ListCollections returns the names of all collections.
func (ct *CTransaction) ListCollections() ([]string, error) {
	cat, err := ct.openCatalog(false)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), cat.Names...), nil
}

// bindIndexer validates an indexer against the persistent description,
// remembers it, and returns its index slot.
func (h *Handle) bindIndexer(ix GenericIndexer) (int, error) {
	i, ok := h.col.findIndex(ix.Name())
	if !ok {
		return -1, fmt.Errorf("%w: %q on collection %q", ErrNoSuchIndex, ix.Name(), h.col.Name)
	}
	desc := &h.col.Indexes[i]
	if desc.Unique != ix.Unique() || desc.Kind != ix.Kind() {
		return -1, fmt.Errorf("collection: indexer %q (unique=%v, %v) does not match stored index (unique=%v, %v)",
			ix.Name(), ix.Unique(), ix.Kind(), desc.Unique, desc.Kind)
	}
	h.indexers[i] = ix
	return i, nil
}

// requireAllIndexers checks that every index has an extractor bound.
func (h *Handle) requireAllIndexers() error {
	for i, desc := range h.col.Indexes {
		if h.indexers[i] == nil {
			return fmt.Errorf("collection: writable access to %q requires an indexer for index %q",
				h.col.Name, desc.Name)
		}
	}
	return nil
}

// Name returns the collection name.
func (h *Handle) Name() string { return h.col.Name }

// Size returns the number of objects in the collection.
func (h *Handle) Size() int64 { return h.col.Size }

// IndexNames lists the indexes on the collection.
func (h *Handle) IndexNames() []string {
	out := make([]string, 0, len(h.col.Indexes))
	for _, d := range h.col.Indexes {
		out = append(out, d.Name)
	}
	return out
}

// indexOps is the uniform interface over the three index organizations.
type indexOps interface {
	insert(key []byte, oid objectstore.ObjectID) error
	remove(key []byte, oid objectstore.ObjectID) error
	containsKey(key []byte) (bool, error)
	lookup(key []byte, fn func(objectstore.ObjectID) error) error
	scan(fn func(objectstore.ObjectID) error) error
	rangeScan(min, max []byte, fn func(objectstore.ObjectID) error) error
	destroy() error
}

// indexOpsAt builds the operations view of index slot i.
func (h *Handle) indexOpsAt(i int) indexOps {
	switch h.col.Indexes[i].Kind {
	case BTree:
		return &btreeIndex{h: h, idx: i}
	case HashTable:
		return &hashIndex{h: h, idx: i}
	case List:
		return &listIndex{h: h, idx: i}
	default:
		panic(fmt.Sprintf("collection: unknown index kind %v", h.col.Indexes[i].Kind))
	}
}

// extractKeys applies every index's extractor to obj, in index order.
func (h *Handle) extractKeys(obj objectstore.Object) ([][]byte, error) {
	keys := make([][]byte, len(h.col.Indexes))
	for i := range h.col.Indexes {
		k, err := h.extractIndexKey(i, obj)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// extractMutableKeys is extractKeys with nil entries for indexes whose keys
// are declared immutable (no snapshot needed, §5.2.3).
func (h *Handle) extractMutableKeys(obj objectstore.Object) ([][]byte, error) {
	keys := make([][]byte, len(h.col.Indexes))
	for i, desc := range h.col.Indexes {
		ix := h.indexers[i]
		if ix == nil {
			return nil, fmt.Errorf("collection: no indexer bound for index %q", desc.Name)
		}
		if ix.Immutable() {
			continue
		}
		k, err := ix.ExtractEncoded(obj)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// extractIndexKey applies index i's extractor to obj.
func (h *Handle) extractIndexKey(i int, obj objectstore.Object) ([]byte, error) {
	ix := h.indexers[i]
	if ix == nil {
		return nil, fmt.Errorf("collection: no indexer bound for index %q", h.col.Indexes[i].Name)
	}
	return ix.ExtractEncoded(obj)
}

// extractFor extracts index i's key from a stored object (used by list
// lookups and index builds).
func (h *Handle) extractFor(i int, oid objectstore.ObjectID) ([]byte, error) {
	obj, err := h.ct.t.OpenReadonly(oid)
	if err != nil {
		return nil, err
	}
	return h.extractIndexKey(i, obj)
}

// mutable guards mutating operations.
func (h *Handle) mutable() error {
	if !h.writable {
		return fmt.Errorf("%w: %q", ErrReadonlyCollection, h.col.Name)
	}
	if h.openIters > 0 {
		return fmt.Errorf("%w: %q", ErrIteratorOpen, h.col.Name)
	}
	return nil
}

// Insert inserts an object into the collection (paper Figure 6), storing it
// in the object store and adding it to every index. Uniqueness of all
// unique indexes is verified before anything is modified, so a duplicate
// leaves the collection untouched.
func (h *Handle) Insert(obj objectstore.Object) (objectstore.ObjectID, error) {
	if err := h.mutable(); err != nil {
		return objectstore.NilObject, err
	}
	keys, err := h.extractKeys(obj)
	if err != nil {
		return objectstore.NilObject, err
	}
	for i, desc := range h.col.Indexes {
		if !desc.Unique {
			continue
		}
		dup, err := h.indexOpsAt(i).containsKey(keys[i])
		if err != nil {
			return objectstore.NilObject, err
		}
		if dup {
			return objectstore.NilObject, fmt.Errorf("%w: index %q", ErrDuplicateKey, desc.Name)
		}
	}
	oid, err := h.ct.t.Insert(obj)
	if err != nil {
		return objectstore.NilObject, err
	}
	for i := range h.col.Indexes {
		if err := h.indexOpsAt(i).insert(keys[i], oid); err != nil {
			return objectstore.NilObject, err
		}
	}
	h.col.Size++
	return oid, nil
}

// CreateIndex creates a new index on the collection and populates it from
// the existing objects (paper Figure 6). A uniqueness violation among
// existing objects fails the operation (the application should then abort
// the transaction).
func (h *Handle) CreateIndex(ix GenericIndexer) error {
	if err := h.mutable(); err != nil {
		return err
	}
	if _, dup := h.col.findIndex(ix.Name()); dup {
		return fmt.Errorf("%w: %q", ErrIndexExists, ix.Name())
	}
	root, err := createIndexRoot(h.ct.t, ix.Kind())
	if err != nil {
		return err
	}
	h.col.Indexes = append(h.col.Indexes, indexDesc{
		Name:   ix.Name(),
		Unique: ix.Unique(),
		Kind:   ix.Kind(),
		Root:   root,
	})
	h.indexers = append(h.indexers, ix)
	slot := len(h.col.Indexes) - 1
	// Populate from a scan of the first (pre-existing) index.
	var members []objectstore.ObjectID
	if err := h.indexOpsAt(0).scan(func(m objectstore.ObjectID) error {
		members = append(members, m)
		return nil
	}); err != nil {
		return err
	}
	ops := h.indexOpsAt(slot)
	for _, m := range members {
		obj, err := h.ct.t.OpenReadonly(m)
		if err != nil {
			return err
		}
		key, err := ix.ExtractEncoded(obj)
		if err != nil {
			return err
		}
		if err := ops.insert(key, m); err != nil {
			return err
		}
	}
	return nil
}

// RemoveIndex removes an index from the collection (paper Figure 6); the
// last index cannot be removed.
func (h *Handle) RemoveIndex(name string) error {
	if err := h.mutable(); err != nil {
		return err
	}
	i, ok := h.col.findIndex(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	if len(h.col.Indexes) == 1 {
		return ErrLastIndex
	}
	if err := h.indexOpsAt(i).destroy(); err != nil {
		return err
	}
	h.col.Indexes = append(h.col.Indexes[:i], h.col.Indexes[i+1:]...)
	h.indexers = append(h.indexers[:i], h.indexers[i+1:]...)
	return nil
}

// Query returns an iterator over the whole collection in the order of the
// given index (paper Figure 6's scan query).
func (h *Handle) Query(ix GenericIndexer) (*Iterator, error) {
	slot, err := h.bindIndexer(ix)
	if err != nil {
		return nil, err
	}
	return h.newIterator(func(fn func(objectstore.ObjectID) error) error {
		return h.indexOpsAt(slot).scan(fn)
	})
}

// QueryExact returns an iterator over objects whose key equals match.
func (h *Handle) QueryExact(ix GenericIndexer, match Key) (*Iterator, error) {
	slot, err := h.bindIndexer(ix)
	if err != nil {
		return nil, err
	}
	enc := match.Encode()
	if d := &h.col.Indexes[slot]; d.Kind == HashTable && d.Unique {
		// At most one match: the point-lookup path builds its result with
		// no callback, no heap index view and no result slice.
		hx := hashIndex{h: h, idx: slot}
		oid, found, err := hx.find(enc)
		if err != nil {
			return nil, err
		}
		it := h.openIterator()
		if found {
			it.one[0] = oid
			it.oids = it.one[:1]
		}
		return it, nil
	}
	return h.newIterator(func(fn func(objectstore.ObjectID) error) error {
		return h.indexOpsAt(slot).lookup(enc, fn)
	})
}

// QueryRange returns an iterator over objects with min <= key <= max in key
// order; nil bounds are unbounded (the paper's plusInfinity). Only B-tree
// indexes support ranges.
func (h *Handle) QueryRange(ix GenericIndexer, min, max Key) (*Iterator, error) {
	slot, err := h.bindIndexer(ix)
	if err != nil {
		return nil, err
	}
	var minB, maxB []byte
	if min != nil {
		minB = min.Encode()
	}
	if max != nil {
		maxB = max.Encode()
	}
	return h.newIterator(func(fn func(objectstore.ObjectID) error) error {
		return h.indexOpsAt(slot).rangeScan(minB, maxB, fn)
	})
}
