package chunkstore

import (
	"errors"
	"fmt"

	"tdb/internal/sec"
)

// Snapshot is a frozen, consistent view of the committed database, created
// in O(cached map nodes) by copy-on-write over the location map (paper
// §3.2.1: "the location map can be inexpensively snapshot using copy on
// write"). Snapshots feed the backup store: a full backup streams every
// live chunk; an incremental backup streams the difference of two
// snapshots, computed cheaply by pruning subtrees with equal hashes.
//
// While a snapshot is open, the cleaner will not free segments the snapshot
// can reference.
type Snapshot struct {
	cs       *Store
	root     *mapNode
	height   int
	rootHash []byte
	seq      uint64
	counter  uint64
	tailSeg  uint64
	closed   bool
}

// TakeSnapshot freezes the current committed state.
func (s *Store) TakeSnapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	// Snapshots are a flush point: backup streaming reads the snapshot over
	// many mutex acquisitions, and flushing now means those reads never
	// depend on the tail buffer's state drifting underneath the snapshot.
	if err := s.segs.flushLocked(); err != nil {
		return nil, err
	}
	root := s.lm.markShared()
	snap := &Snapshot{
		cs:       s,
		root:     root,
		height:   s.lm.height,
		rootHash: append([]byte(nil), s.lm.rootHash()...),
		seq:      s.commitSeq,
		counter:  s.counterVal.Load(),
		tailSeg:  s.segs.tail.num,
	}
	s.snapshots[snap] = struct{}{}
	return snap, nil
}

// Seq returns the commit sequence number the snapshot captures.
func (sn *Snapshot) Seq() uint64 { return sn.seq }

// RootHash returns the Merkle root of the snapshot state.
//
//tdblint:public the Merkle root is the published tamper-evidence commitment — a one-way digest, MACed wherever it is persisted, never secret
func (sn *Snapshot) RootHash() []byte { return append([]byte(nil), sn.rootHash...) }

// Counter returns the one-way counter value at snapshot time.
func (sn *Snapshot) Counter() uint64 { return sn.counter }

// Harden makes the commit the snapshot captures durable, so that no crash
// can take the store back behind it. A snapshot of acknowledged durable
// state needs nothing. Otherwise Harden commits an empty durable batch:
// its harden covers every record before its own, the snapshot's commit
// included. An error matching ErrNotDurable means the snapshot's state may
// still be lost to a crash.
func (sn *Snapshot) Harden() error {
	s := sn.cs
	s.gc.mu.Lock()
	hardened := s.gc.hardened >= sn.seq
	s.gc.mu.Unlock()
	if hardened {
		return nil
	}
	if err := s.Commit(s.NewBatch(), true); err != nil && !errors.Is(err, ErrMaintenance) {
		return err
	}
	return nil
}

// Close releases the snapshot, unpinning segments for the cleaner.
func (sn *Snapshot) Close() {
	sn.cs.mu.Lock()
	defer sn.cs.mu.Unlock()
	if !sn.closed {
		delete(sn.cs.snapshots, sn)
		sn.closed = true
	}
}

// ForEach streams every live chunk of the snapshot in ascending chunk-id
// order: the callback receives the chunk id, the content hash from the
// location map, and the stored (encrypted) record payload, validated
// against the hash before delivery.
func (sn *Snapshot) ForEach(fn func(cid ChunkID, hash []byte, ciphertext []byte) error) error {
	sn.cs.mu.Lock()
	defer sn.cs.mu.Unlock()
	if sn.closed {
		return ErrSnapshotClosed
	}
	return sn.cs.lm.forEachEntry(sn.root, func(cid ChunkID, e entry) error {
		ct, err := sn.cs.readChunkLocked(cid, e, sn.cs.checkChunkRecord)
		if err != nil {
			return err
		}
		return fn(cid, e.hash, ct)
	})
}

// DiffChange describes one difference between two snapshots.
type DiffChange struct {
	CID ChunkID
	// Deleted is true when the chunk exists in the base but not in the
	// current snapshot.
	Deleted bool
	// Hash and Ciphertext carry the current version for non-deleted
	// changes.
	Hash       []byte
	Ciphertext []byte
}

// Diff streams the changes that turn base into sn: chunks added or
// rewritten since base (with their current ciphertext) and chunks deleted
// since base. Subtrees whose Merkle hashes match are pruned without being
// read, which is what makes frequent incremental backups cheap (paper
// §3.2.1). Both snapshots must come from the same store, with base the
// older one.
func (sn *Snapshot) Diff(base *Snapshot, fn func(DiffChange) error) error {
	sn.cs.mu.Lock()
	defer sn.cs.mu.Unlock()
	if sn.closed || base.closed {
		return ErrSnapshotClosed
	}
	if base.cs != sn.cs {
		return fmt.Errorf("%w: diffing snapshots from different stores", ErrUsage)
	}
	if base.seq > sn.seq {
		return fmt.Errorf("%w: diff base snapshot (seq %d) is newer than target (seq %d)", ErrUsage, base.seq, sn.seq)
	}
	d := differ{cs: sn.cs, fn: fn}
	return d.diffNodes(sn.cs.lm, base.root, sn.root)
}

type differ struct {
	cs *Store
	fn func(DiffChange) error
}

// diffNodes walks two versions of the map, invoking the callback for leaf
// entries that differ. baseN or curN may be nil (subtree absent on that
// side). The nodes may be at different levels when the tree grew between
// the snapshots; the taller side is descended first.
func (d *differ) diffNodes(m *locMap, baseN, curN *mapNode) error {
	switch {
	case baseN == nil && curN == nil:
		return nil
	case baseN != nil && curN != nil && baseN.level < curN.level:
		// The tree grew: the base corresponds to child 0 of the current
		// spine; every other child is new.
		for i := 0; i < len(curN.entries); i++ {
			var b *mapNode
			if i == 0 {
				b = baseN
			}
			kid, err := d.loadKid(m, curN, i)
			if err != nil {
				return err
			}
			if i == 0 {
				if err := d.diffNodes(m, b, kid); err != nil {
					return err
				}
			} else if kid != nil {
				if err := d.emitAll(m, kid); err != nil {
					return err
				}
			}
		}
		return nil
	case baseN != nil && curN != nil && baseN.level > curN.level:
		// The current tree is shorter than the base: impossible (trees only
		// grow), treat every base-only region as deleted.
		for i := 0; i < len(baseN.entries); i++ {
			var c *mapNode
			if i == 0 {
				c = curN
			}
			kid, err := d.loadKid(m, baseN, i)
			if err != nil {
				return err
			}
			if i == 0 {
				if err := d.diffNodes(m, kid, c); err != nil {
					return err
				}
			} else if kid != nil {
				if err := d.emitDeleted(m, kid); err != nil {
					return err
				}
			}
		}
		return nil
	case curN == nil:
		return d.emitDeleted(m, baseN)
	case baseN == nil:
		return d.emitAll(m, curN)
	}

	if baseN.level == 0 {
		base := baseN.index * uint64(m.fanout)
		for i := range baseN.entries {
			be, ce := baseN.entries[i], curN.entries[i]
			cid := ChunkID(base + uint64(i))
			switch {
			case be.isEmpty() && ce.isEmpty():
			case ce.isEmpty():
				if err := d.fn(DiffChange{CID: cid, Deleted: true}); err != nil {
					return err
				}
			case be.isEmpty() || !sec.HashEqual(be.hash, ce.hash):
				ct, err := d.cs.readChunkLocked(cid, ce, d.cs.checkChunkRecord)
				if err != nil {
					return err
				}
				if err := d.fn(DiffChange{CID: cid, Hash: ce.hash, Ciphertext: ct}); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for i := range baseN.entries {
		be, ce := baseN.entries[i], curN.entries[i]
		// Prune identical subtrees by hash — the incremental-backup trick.
		if !be.isEmpty() && !ce.isEmpty() && sec.HashEqual(be.hash, ce.hash) {
			continue
		}
		if be.isEmpty() && ce.isEmpty() && baseN.kids[i] == nil && curN.kids[i] == nil {
			continue
		}
		bk, err := d.loadKid(m, baseN, i)
		if err != nil {
			return err
		}
		ck, err := d.loadKid(m, curN, i)
		if err != nil {
			return err
		}
		if err := d.diffNodes(m, bk, ck); err != nil {
			return err
		}
	}
	return nil
}

// loadKid returns child i of n, loading it from the log if needed; nil when
// the subtree is absent.
func (d *differ) loadKid(m *locMap, n *mapNode, i int) (*mapNode, error) {
	if n.level == 0 {
		return nil, nil
	}
	if kid := n.kids[i]; kid != nil {
		return kid, nil
	}
	if n.entries[i].isEmpty() {
		return nil, nil
	}
	return m.loadChild(n, i)
}

// emitAll reports every chunk under n as added/changed.
func (d *differ) emitAll(m *locMap, n *mapNode) error {
	return m.forEachEntry(n, func(cid ChunkID, e entry) error {
		ct, err := d.cs.readChunkLocked(cid, e, d.cs.checkChunkRecord)
		if err != nil {
			return err
		}
		return d.fn(DiffChange{CID: cid, Hash: e.hash, Ciphertext: ct})
	})
}

// emitDeleted reports every chunk under n as deleted.
func (d *differ) emitDeleted(m *locMap, n *mapNode) error {
	return m.forEachEntry(n, func(cid ChunkID, _ entry) error {
		return d.fn(DiffChange{CID: cid, Deleted: true})
	})
}
