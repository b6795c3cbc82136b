package collection

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"tdb/internal/objectstore"
)

// B-tree index (paper §5.2.4). Nodes are ordinary persistent objects: they
// are locked with the same two-phase locking as application objects and
// cached in the object store's decode table, which is how the paper gets index
// caching for free (§4.2.2).
//
// Entries are sorted by (encoded key, object id); the object id tiebreak
// makes duplicate keys unambiguous for non-unique indexes. Internal nodes
// hold (separator, child) pairs where the separator is a lower bound of the
// child's subtree. Deletion does not rebalance — embedded DRM collections
// shrink rarely, and lookups remain correct in sparse trees.

// btreeOrder is the maximum number of entries per node before a split.
const btreeOrder = 32

// ErrDuplicateKey reports a unique-index violation on insert (paper Figure
// 6: insert "raises an exception if insertion of object would violate
// uniqueness of any of the collection indexes").
var ErrDuplicateKey = errors.New("collection: duplicate key in unique index")

// btreeNode is one B-tree node.
type btreeNode struct {
	Leaf bool
	// Entries: in leaves (key, object id); in internal nodes (separator,
	// child node id).
	Entries []keyOID
	// Next chains leaves in key order.
	Next objectstore.ObjectID
}

func (n *btreeNode) ClassID() objectstore.ClassID { return classBTreeNode }

func (n *btreeNode) Pickle(p *objectstore.Pickler) {
	p.Bool(n.Leaf)
	p.ObjectID(n.Next)
	pickleEntries(p, n.Entries)
}

func (n *btreeNode) Unpickle(u *objectstore.Unpickler) error {
	n.Leaf = u.Bool()
	n.Next = u.ObjectID()
	n.Entries = unpickleEntries(u)
	return u.Err()
}

// entryLess orders leaf entries by (key, oid).
func entryLess(aKey []byte, aOID objectstore.ObjectID, bKey []byte, bOID objectstore.ObjectID) bool {
	if c := bytes.Compare(aKey, bKey); c != 0 {
		return c < 0
	}
	return aOID < bOID
}

// composite appends the object id to an encoded key. Internal nodes store
// separators in this form so that separator comparisons are plain byte
// comparisons; this relies on key encodings being prefix-free, which every
// Key implementation in this package guarantees.
func composite(key []byte, oid objectstore.ObjectID) []byte {
	out := make([]byte, 0, len(key)+8)
	out = append(out, key...)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(oid))
	return append(out, b[:]...)
}

// nodeMinComposite returns the composite lower bound of a node's content.
func nodeMinComposite(n *btreeNode) []byte {
	if len(n.Entries) == 0 {
		return nil
	}
	if n.Leaf {
		return composite(n.Entries[0].key, n.Entries[0].oid)
	}
	return append([]byte(nil), n.Entries[0].key...)
}

// searchSeparators returns the index of the child to descend into for the
// composite target: the last separator <= target (clamped to 0).
func searchSeparators(entries []keyOID, target []byte) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(entries[mid].key, target) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// searchEntries returns the first position whose entry is >= (key, oid).
func searchEntries(entries []keyOID, key []byte, oid objectstore.ObjectID) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entryLess(entries[mid].key, entries[mid].oid, key, oid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// btreeIndex binds B-tree operations to a transaction and an index slot of
// a collection handle (the root id can change on splits).
type btreeIndex struct {
	h   *Handle
	idx int
}

func (bt *btreeIndex) root() objectstore.ObjectID { return bt.h.col.Indexes[bt.idx].Root }

func (bt *btreeIndex) setRoot(oid objectstore.ObjectID) { bt.h.col.Indexes[bt.idx].Root = oid }

func (bt *btreeIndex) unique() bool { return bt.h.col.Indexes[bt.idx].Unique }

// create builds an empty tree and returns its root.
func btCreate(t *objectstore.Txn) (objectstore.ObjectID, error) {
	return t.Insert(&btreeNode{Leaf: true})
}

// openNode opens a B-tree node for reading or writing.
func openNode(t *objectstore.Txn, oid objectstore.ObjectID, writable bool) (*btreeNode, error) {
	var obj objectstore.Object
	var err error
	if writable {
		obj, err = t.OpenWritable(oid)
	} else {
		obj, err = t.OpenReadonly(oid)
	}
	if err != nil {
		return nil, err
	}
	n, ok := obj.(*btreeNode)
	if !ok {
		return nil, fmt.Errorf("collection: object %d is not a B-tree node", oid)
	}
	return n, nil
}

// insert adds (key, oid), splitting as needed.
func (bt *btreeIndex) insert(key []byte, oid objectstore.ObjectID) error {
	t := bt.h.ct.t
	if bt.unique() {
		dup, err := bt.containsKey(key)
		if err != nil {
			return err
		}
		if dup {
			return fmt.Errorf("%w: index %q", ErrDuplicateKey, bt.h.col.Indexes[bt.idx].Name)
		}
	}
	split, sepKey, newChild, err := bt.insertInto(bt.root(), key, oid)
	if err != nil {
		return err
	}
	if split {
		// Grow the tree: a new root with the old root and the new sibling.
		oldRoot := bt.root()
		oldNode, err := openNode(t, oldRoot, false)
		if err != nil {
			return err
		}
		newRoot, err := t.Insert(&btreeNode{
			Leaf: false,
			Entries: []keyOID{
				{key: nodeMinComposite(oldNode), oid: oldRoot},
				{key: sepKey, oid: newChild},
			},
		})
		if err != nil {
			return err
		}
		bt.setRoot(newRoot)
	}
	return nil
}

// insertInto inserts into the subtree at nodeID; on split it returns the
// new right sibling and its separator.
func (bt *btreeIndex) insertInto(nodeID objectstore.ObjectID, key []byte, oid objectstore.ObjectID) (bool, []byte, objectstore.ObjectID, error) {
	t := bt.h.ct.t
	n, err := openNode(t, nodeID, true)
	if err != nil {
		return false, nil, objectstore.NilObject, err
	}
	if n.Leaf {
		pos := searchEntries(n.Entries, key, oid)
		n.Entries = append(n.Entries, keyOID{})
		copy(n.Entries[pos+1:], n.Entries[pos:])
		n.Entries[pos] = keyOID{key: append([]byte(nil), key...), oid: oid}
		if len(n.Entries) <= btreeOrder {
			return false, nil, objectstore.NilObject, nil
		}
		// Split the leaf.
		mid := len(n.Entries) / 2
		right := &btreeNode{Leaf: true, Entries: append([]keyOID(nil), n.Entries[mid:]...), Next: n.Next}
		rightID, err := t.Insert(right)
		if err != nil {
			return false, nil, objectstore.NilObject, err
		}
		n.Entries = n.Entries[:mid:mid]
		n.Next = rightID
		return true, composite(right.Entries[0].key, right.Entries[0].oid), rightID, nil
	}
	// Internal: find the child whose separator range covers (key, oid).
	ci := searchSeparators(n.Entries, composite(key, oid))
	split, sepKey, newChild, err := bt.insertInto(n.Entries[ci].oid, key, oid)
	if err != nil {
		return false, nil, objectstore.NilObject, err
	}
	if !split {
		return false, nil, objectstore.NilObject, nil
	}
	pos := ci + 1
	n.Entries = append(n.Entries, keyOID{})
	copy(n.Entries[pos+1:], n.Entries[pos:])
	n.Entries[pos] = keyOID{key: append([]byte(nil), sepKey...), oid: newChild}
	if len(n.Entries) <= btreeOrder {
		return false, nil, objectstore.NilObject, nil
	}
	mid := len(n.Entries) / 2
	right := &btreeNode{Leaf: false, Entries: append([]keyOID(nil), n.Entries[mid:]...)}
	rightID, err := t.Insert(right)
	if err != nil {
		return false, nil, objectstore.NilObject, err
	}
	sep := right.Entries[0].key
	n.Entries = n.Entries[:mid:mid]
	return true, sep, rightID, nil
}

// remove deletes the entry (key, oid). Missing entries are an internal
// error: the caller derived the key from the indexed object.
func (bt *btreeIndex) remove(key []byte, oid objectstore.ObjectID) error {
	t := bt.h.ct.t
	nodeID := bt.root()
	for {
		n, err := openNode(t, nodeID, false)
		if err != nil {
			return err
		}
		if n.Leaf {
			wn, err := openNode(t, nodeID, true)
			if err != nil {
				return err
			}
			pos := searchEntries(wn.Entries, key, oid)
			if pos >= len(wn.Entries) || !bytes.Equal(wn.Entries[pos].key, key) || wn.Entries[pos].oid != oid {
				return fmt.Errorf("collection: entry for object %d missing from index %q", oid, bt.h.col.Indexes[bt.idx].Name)
			}
			wn.Entries = append(wn.Entries[:pos], wn.Entries[pos+1:]...)
			return nil
		}
		nodeID = n.Entries[searchSeparators(n.Entries, composite(key, oid))].oid
	}
}

// containsKey reports whether any entry has the exact key.
func (bt *btreeIndex) containsKey(key []byte) (bool, error) {
	found := false
	err := bt.lookup(key, func(objectstore.ObjectID) error {
		found = true
		return errStopScan
	})
	return found, err
}

// errStopScan terminates scans early; it never escapes this package.
var errStopScan = errors.New("collection: stop scan")

// lookup visits every entry with exactly the given key, in oid order.
func (bt *btreeIndex) lookup(key []byte, fn func(objectstore.ObjectID) error) error {
	return bt.rangeScan(key, key, fn)
}

// scan visits all entries in key order.
func (bt *btreeIndex) scan(fn func(objectstore.ObjectID) error) error {
	return bt.rangeScan(nil, nil, fn)
}

// rangeScan visits entries with min <= key <= max (nil bounds are
// unbounded), in key order.
func (bt *btreeIndex) rangeScan(min, max []byte, fn func(objectstore.ObjectID) error) error {
	t := bt.h.ct.t
	// Descend to the leaf containing min.
	nodeID := bt.root()
	for {
		n, err := openNode(t, nodeID, false)
		if err != nil {
			return err
		}
		if n.Leaf {
			break
		}
		if min == nil {
			nodeID = n.Entries[0].oid
		} else {
			nodeID = n.Entries[searchSeparators(n.Entries, composite(min, 0))].oid
		}
	}
	// Walk the leaf chain.
	for nodeID != objectstore.NilObject {
		n, err := openNode(t, nodeID, false)
		if err != nil {
			return err
		}
		for _, e := range n.Entries {
			if min != nil && bytes.Compare(e.key, min) < 0 {
				continue
			}
			if max != nil && bytes.Compare(e.key, max) > 0 {
				return nil
			}
			if err := fn(e.oid); err != nil {
				if errors.Is(err, errStopScan) {
					return nil
				}
				return err
			}
		}
		nodeID = n.Next
	}
	return nil
}

// destroy removes every node of the tree.
func (bt *btreeIndex) destroy() error {
	return bt.destroyNode(bt.root())
}

func (bt *btreeIndex) destroyNode(nodeID objectstore.ObjectID) error {
	t := bt.h.ct.t
	n, err := openNode(t, nodeID, false)
	if err != nil {
		return err
	}
	if !n.Leaf {
		kids := make([]objectstore.ObjectID, 0, len(n.Entries))
		for _, e := range n.Entries {
			kids = append(kids, e.oid)
		}
		for _, kid := range kids {
			if err := bt.destroyNode(kid); err != nil {
				return err
			}
		}
	}
	return t.Remove(nodeID)
}
