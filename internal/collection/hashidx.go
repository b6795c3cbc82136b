package collection

import (
	"bytes"
	"errors"
	"fmt"

	"tdb/internal/objectstore"
)

// Dynamic hash table index using Larson's linear hashing [20] (paper
// §5.2.4). The table grows one bucket at a time: when the load factor
// exceeds a threshold, the bucket at the split pointer is rehashed into
// itself and a new bucket, so growth cost is smooth — no stop-the-world
// directory doubling.
//
// Layout: a small directory object holds the linear hashing state and a
// spine of segment objects; each segment holds up to hashSegmentSize bucket
// ids; buckets hold entries plus an overflow chain. An insert touches one
// bucket (two during a split plus one segment), keeping per-transaction log
// traffic small.

const (
	// hashBaseBuckets is the initial bucket count (a power of two).
	hashBaseBuckets = 8
	// hashSegmentSize is the number of bucket slots per directory segment.
	hashSegmentSize = 256
	// hashBucketCapacity is the soft per-bucket entry limit; the table
	// splits when average occupancy exceeds it.
	hashBucketCapacity = 8
)

// hashDir is the root object of a hash index.
type hashDir struct {
	// Level and Split are the linear hashing round and split pointer.
	Level uint32
	Split uint64
	// Count is the number of entries in the table.
	Count int64
	// Spine lists segment objects.
	Spine []objectstore.ObjectID
}

func (d *hashDir) ClassID() objectstore.ClassID { return classHashDir }

func (d *hashDir) Pickle(p *objectstore.Pickler) {
	p.Uint32(d.Level)
	p.Uint64(d.Split)
	p.Int64(d.Count)
	p.ObjectIDs(d.Spine)
}

func (d *hashDir) Unpickle(u *objectstore.Unpickler) error {
	d.Level = u.Uint32()
	d.Split = u.Uint64()
	d.Count = u.Int64()
	d.Spine = u.ObjectIDs()
	return u.Err()
}

// buckets returns the current number of addressable buckets.
func (d *hashDir) buckets() uint64 {
	return hashBaseBuckets<<d.Level + d.Split
}

// bucketFor maps a hash value to a bucket number (Larson's address
// computation).
func (d *hashDir) bucketFor(h uint64) uint64 {
	n := uint64(hashBaseBuckets) << d.Level
	i := h % n
	if i < d.Split {
		i = h % (2 * n)
	}
	return i
}

// hashSegment holds a fixed window of bucket ids.
type hashSegment struct {
	Buckets []objectstore.ObjectID
}

func (s *hashSegment) ClassID() objectstore.ClassID { return classHashSegment }

func (s *hashSegment) Pickle(p *objectstore.Pickler) { p.ObjectIDs(s.Buckets) }

func (s *hashSegment) Unpickle(u *objectstore.Unpickler) error {
	s.Buckets = u.ObjectIDs()
	return u.Err()
}

// hashBucket holds entries and an overflow chain.
type hashBucket struct {
	Entries  []keyOID
	Overflow objectstore.ObjectID
}

func (b *hashBucket) ClassID() objectstore.ClassID { return classHashBucket }

func (b *hashBucket) Pickle(p *objectstore.Pickler) {
	p.ObjectID(b.Overflow)
	pickleEntries(p, b.Entries)
}

func (b *hashBucket) Unpickle(u *objectstore.Unpickler) error {
	b.Overflow = u.ObjectID()
	b.Entries = unpickleEntries(u)
	return u.Err()
}

// hashIndex binds hash table operations to a transaction and index slot.
type hashIndex struct {
	h   *Handle
	idx int
}

func (hx *hashIndex) root() objectstore.ObjectID { return hx.h.col.Indexes[hx.idx].Root }
func (hx *hashIndex) unique() bool               { return hx.h.col.Indexes[hx.idx].Unique }
func (hx *hashIndex) name() string               { return hx.h.col.Indexes[hx.idx].Name }

// hashCreate builds an empty table.
func hashCreate(t *objectstore.Txn) (objectstore.ObjectID, error) {
	seg := &hashSegment{Buckets: make([]objectstore.ObjectID, 0, hashSegmentSize)}
	for i := 0; i < hashBaseBuckets; i++ {
		bid, err := t.Insert(&hashBucket{})
		if err != nil {
			return objectstore.NilObject, err
		}
		seg.Buckets = append(seg.Buckets, bid)
	}
	segID, err := t.Insert(seg)
	if err != nil {
		return objectstore.NilObject, err
	}
	return t.Insert(&hashDir{Spine: []objectstore.ObjectID{segID}})
}

func (hx *hashIndex) openDir(writable bool) (*hashDir, error) {
	return openAs[*hashDir](hx.h.ct.t, hx.root(), writable)
}

// openAs opens an object with a typed assertion.
func openAs[T objectstore.Object](t *objectstore.Txn, oid objectstore.ObjectID, writable bool) (T, error) {
	var zero T
	var obj objectstore.Object
	var err error
	if writable {
		obj, err = t.OpenWritable(oid)
	} else {
		obj, err = t.OpenReadonly(oid)
	}
	if err != nil {
		return zero, err
	}
	typed, ok := obj.(T)
	if !ok {
		return zero, fmt.Errorf("collection: object %d has unexpected class %T", oid, obj)
	}
	return typed, nil
}

// bucketID resolves a bucket number to its object id via the spine.
func (hx *hashIndex) bucketID(d *hashDir, bucket uint64, writableSeg bool) (objectstore.ObjectID, *hashSegment, int, error) {
	segIdx := int(bucket / hashSegmentSize)
	slot := int(bucket % hashSegmentSize)
	if segIdx >= len(d.Spine) {
		return objectstore.NilObject, nil, 0, fmt.Errorf("collection: hash bucket %d beyond spine", bucket)
	}
	seg, err := openAs[*hashSegment](hx.h.ct.t, d.Spine[segIdx], writableSeg)
	if err != nil {
		return objectstore.NilObject, nil, 0, err
	}
	if slot >= len(seg.Buckets) {
		return objectstore.NilObject, nil, 0, fmt.Errorf("collection: hash bucket %d missing from segment", bucket)
	}
	return seg.Buckets[slot], seg, slot, nil
}

// insert adds (key, oid), splitting when the load factor is exceeded.
func (hx *hashIndex) insert(key []byte, oid objectstore.ObjectID) error {
	t := hx.h.ct.t
	if hx.unique() {
		dup, err := hx.containsKey(key)
		if err != nil {
			return err
		}
		if dup {
			return fmt.Errorf("%w: index %q", ErrDuplicateKey, hx.name())
		}
	}
	d, err := hx.openDir(true)
	if err != nil {
		return err
	}
	bid, _, _, err := hx.bucketID(d, d.bucketFor(hashEncoded(key)), false)
	if err != nil {
		return err
	}
	// Append to the last bucket of the chain with room, or extend the
	// chain.
	for {
		b, err := openAs[*hashBucket](t, bid, true)
		if err != nil {
			return err
		}
		if len(b.Entries) < hashBucketCapacity || b.Overflow == objectstore.NilObject {
			if len(b.Entries) < hashBucketCapacity {
				b.Entries = append(b.Entries, keyOID{key: append([]byte(nil), key...), oid: oid})
			} else {
				nb := &hashBucket{Entries: []keyOID{{key: append([]byte(nil), key...), oid: oid}}}
				nbID, err := t.Insert(nb)
				if err != nil {
					return err
				}
				b.Overflow = nbID
			}
			break
		}
		bid = b.Overflow
	}
	d.Count++
	if d.Count > int64(d.buckets())*hashBucketCapacity {
		return hx.split(d)
	}
	return nil
}

// split performs one linear-hashing split step.
func (hx *hashIndex) split(d *hashDir) error {
	t := hx.h.ct.t
	n := uint64(hashBaseBuckets) << d.Level
	victim := d.Split
	newBucket := n + d.Split

	// Extend the spine for the new bucket.
	newBID, err := t.Insert(&hashBucket{})
	if err != nil {
		return err
	}
	segIdx := int(newBucket / hashSegmentSize)
	if segIdx == len(d.Spine) {
		segID, err := t.Insert(&hashSegment{Buckets: []objectstore.ObjectID{newBID}})
		if err != nil {
			return err
		}
		d.Spine = append(d.Spine, segID)
	} else {
		seg, err := openAs[*hashSegment](t, d.Spine[segIdx], true)
		if err != nil {
			return err
		}
		if int(newBucket%hashSegmentSize) != len(seg.Buckets) {
			return fmt.Errorf("collection: hash segment slot mismatch during split")
		}
		seg.Buckets = append(seg.Buckets, newBID)
	}

	// Advance the split state before rehashing so bucketFor addresses the
	// new bucket.
	d.Split++
	if d.Split == n {
		d.Level++
		d.Split = 0
	}

	// Rehash the victim chain between the victim and the new bucket.
	vid, _, _, err := hx.bucketID(d, victim, false)
	if err != nil {
		return err
	}
	var all []keyOID
	chain := vid
	var chainNodes []objectstore.ObjectID
	for chain != objectstore.NilObject {
		b, err := openAs[*hashBucket](t, chain, false)
		if err != nil {
			return err
		}
		all = append(all, b.Entries...)
		chainNodes = append(chainNodes, chain)
		chain = b.Overflow
	}
	// Reset the victim chain: keep the head bucket, drop overflow nodes.
	head, err := openAs[*hashBucket](t, vid, true)
	if err != nil {
		return err
	}
	head.Entries = nil
	head.Overflow = objectstore.NilObject
	for _, extra := range chainNodes[1:] {
		if err := t.Remove(extra); err != nil {
			return err
		}
	}
	for _, e := range all {
		target := d.bucketFor(hashEncoded(e.key))
		bid, _, _, err := hx.bucketID(d, target, false)
		if err != nil {
			return err
		}
		if err := hx.appendToChain(bid, e); err != nil {
			return err
		}
	}
	return nil
}

// appendToChain adds an entry to a bucket chain without load accounting.
func (hx *hashIndex) appendToChain(bid objectstore.ObjectID, e keyOID) error {
	t := hx.h.ct.t
	for {
		b, err := openAs[*hashBucket](t, bid, true)
		if err != nil {
			return err
		}
		if len(b.Entries) < hashBucketCapacity {
			b.Entries = append(b.Entries, e)
			return nil
		}
		if b.Overflow == objectstore.NilObject {
			nbID, err := t.Insert(&hashBucket{Entries: []keyOID{e}})
			if err != nil {
				return err
			}
			b.Overflow = nbID
			return nil
		}
		bid = b.Overflow
	}
}

// remove deletes the entry (key, oid).
func (hx *hashIndex) remove(key []byte, oid objectstore.ObjectID) error {
	t := hx.h.ct.t
	d, err := hx.openDir(true)
	if err != nil {
		return err
	}
	bid, _, _, err := hx.bucketID(d, d.bucketFor(hashEncoded(key)), false)
	if err != nil {
		return err
	}
	for bid != objectstore.NilObject {
		b, err := openAs[*hashBucket](t, bid, false)
		if err != nil {
			return err
		}
		for i, e := range b.Entries {
			if e.oid == oid && bytes.Equal(e.key, key) {
				wb, err := openAs[*hashBucket](t, bid, true)
				if err != nil {
					return err
				}
				wb.Entries = append(wb.Entries[:i], wb.Entries[i+1:]...)
				d.Count--
				return nil
			}
		}
		bid = b.Overflow
	}
	return fmt.Errorf("collection: entry for object %d missing from index %q", oid, hx.name())
}

// containsKey reports whether any entry has the key.
func (hx *hashIndex) containsKey(key []byte) (bool, error) {
	_, found, err := hx.find(key)
	return found, err
}

// chainHead returns the first bucket of the chain key hashes to.
func (hx *hashIndex) chainHead(key []byte) (objectstore.ObjectID, error) {
	d, err := hx.openDir(false)
	if err != nil {
		return objectstore.NilObject, err
	}
	bid, _, _, err := hx.bucketID(d, d.bucketFor(hashEncoded(key)), false)
	return bid, err
}

// find returns the first entry with the exact key — on a unique index, the
// only one.
func (hx *hashIndex) find(key []byte) (objectstore.ObjectID, bool, error) {
	bid, err := hx.chainHead(key)
	if err != nil {
		return objectstore.NilObject, false, err
	}
	for bid != objectstore.NilObject {
		b, err := openAs[*hashBucket](hx.h.ct.t, bid, false)
		if err != nil {
			return objectstore.NilObject, false, err
		}
		for i := range b.Entries {
			if bytes.Equal(b.Entries[i].key, key) {
				return b.Entries[i].oid, true, nil
			}
		}
		bid = b.Overflow
	}
	return objectstore.NilObject, false, nil
}

// lookup visits every entry with the exact key.
func (hx *hashIndex) lookup(key []byte, fn func(objectstore.ObjectID) error) error {
	t := hx.h.ct.t
	bid, err := hx.chainHead(key)
	if err != nil {
		return err
	}
	for bid != objectstore.NilObject {
		b, err := openAs[*hashBucket](t, bid, false)
		if err != nil {
			return err
		}
		for _, e := range b.Entries {
			if bytes.Equal(e.key, key) {
				if err := fn(e.oid); err != nil {
					if errors.Is(err, errStopScan) {
						return nil
					}
					return err
				}
			}
		}
		bid = b.Overflow
	}
	return nil
}

// scan visits all entries in bucket order (arbitrary key order).
func (hx *hashIndex) scan(fn func(objectstore.ObjectID) error) error {
	t := hx.h.ct.t
	d, err := hx.openDir(false)
	if err != nil {
		return err
	}
	for bkt := uint64(0); bkt < d.buckets(); bkt++ {
		bid, _, _, err := hx.bucketID(d, bkt, false)
		if err != nil {
			return err
		}
		for bid != objectstore.NilObject {
			b, err := openAs[*hashBucket](t, bid, false)
			if err != nil {
				return err
			}
			for _, e := range b.Entries {
				if err := fn(e.oid); err != nil {
					if errors.Is(err, errStopScan) {
						return nil
					}
					return err
				}
			}
			bid = b.Overflow
		}
	}
	return nil
}

// rangeScan is unsupported: hashing destroys key order.
func (hx *hashIndex) rangeScan(min, max []byte, fn func(objectstore.ObjectID) error) error {
	return fmt.Errorf("%w: %q is a hash table", ErrRangeUnsupported, hx.name())
}

// destroy removes the whole structure.
func (hx *hashIndex) destroy() error {
	t := hx.h.ct.t
	d, err := hx.openDir(false)
	if err != nil {
		return err
	}
	for bkt := uint64(0); bkt < d.buckets(); bkt++ {
		bid, _, _, err := hx.bucketID(d, bkt, false)
		if err != nil {
			return err
		}
		for bid != objectstore.NilObject {
			b, err := openAs[*hashBucket](t, bid, false)
			if err != nil {
				return err
			}
			next := b.Overflow
			if err := t.Remove(bid); err != nil {
				return err
			}
			bid = next
		}
	}
	for _, segID := range d.Spine {
		if err := t.Remove(segID); err != nil {
			return err
		}
	}
	return t.Remove(hx.root())
}
