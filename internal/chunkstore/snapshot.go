package chunkstore

import (
	"errors"
	"fmt"
)

// Snapshot is a frozen, consistent view of the committed database, created
// in O(cached map nodes) by copy-on-write over the location map (paper
// §3.2.1: "the location map can be inexpensively snapshot using copy on
// write"). Snapshots feed the backup store: a full backup streams every
// live chunk; an incremental backup streams the difference of two
// snapshots, computed cheaply by pruning subtrees with equal hashes.
//
// While a snapshot is open, the cleaner will not free segments the snapshot
// can reference, so its records stay where its map says they are. The
// audits — ForEach, Diff, and the store's Verify and Scrub, each over a
// snapshot of its own — walk it that way (auditWalk), reading its records
// through the read path's execute act with no lock held.
type Snapshot struct {
	cs       *Store
	root     *mapNode
	rootHash []byte
	seq      uint64
	counter  uint64
	chunks   int64
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
	// Snapshots are a flush point: an audit reads the snapshot over many
	// mutex acquisitions, and flushing now means those reads never depend
	// on the write-behind buffers' state drifting underneath the snapshot,
	// and a scrub checks what the device holds, not what memory vouches
	// for.
	if err := s.segs.flushLocked(); err != nil {
		return nil, err
	}
	s.lm.setShared(true)
	snap := &Snapshot{
		cs:       s,
		root:     s.lm.root,
		rootHash: append([]byte(nil), s.lm.rootHash()...),
		seq:      s.commitSeq,
		counter:  s.counterVal.Load(),
		chunks:   s.chunkCount,
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

// Close releases the snapshot, unpinning segments for the cleaner. The
// last open snapshot to close unfreezes the current tree's nodes: no
// snapshot shares them any more, so the next write to each need not copy
// it.
func (sn *Snapshot) Close() {
	s := sn.cs
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn.closed {
		return
	}
	delete(s.snapshots, sn)
	sn.closed = true
	if len(s.snapshots) == 0 {
		s.lm.setShared(false)
	}
}

// ForEach streams every live chunk of the snapshot in ascending chunk-id
// order: the callback receives the chunk id, the ciphertext digest from the
// location map, and the stored (encrypted) record payload, validated
// against the digest before delivery. The callback runs with no store lock
// held, so commits proceed beside it. The ciphertext of chunks adjacent in
// the log may share one read buffer (see ReadBatch): a callback that keeps
// it past its return copies it. It returns ErrSnapshotClosed if the
// snapshot is closed mid-walk, and ErrClosed if the store is.
func (sn *Snapshot) ForEach(fn func(cid ChunkID, hash []byte, ciphertext []byte) error) error {
	w := auditWalk{sn: sn, ciphertext: true}
	return w.run(func(ps []readPlan) error {
		for _, p := range ps {
			if err := fn(p.cid, p.e.hash, p.ct); err != nil {
				return err
			}
		}
		return nil
	})
}

// DiffChange describes one difference between two snapshots.
type DiffChange struct {
	CID ChunkID
	// Deleted is true when the chunk exists in the base but not in the
	// current snapshot.
	Deleted bool
	// Hash and Ciphertext carry the current version for non-deleted
	// changes. Ciphertext may share one read buffer with other changes'
	// (see ForEach): a callback that keeps it copies it.
	Hash       []byte
	Ciphertext []byte
}

// Diff streams the changes that turn base into sn: chunks added or
// rewritten since base (with their current ciphertext) and chunks deleted
// since base, in ascending chunk-id order. Subtrees whose Merkle hashes
// match are pruned without being read, which is what makes frequent
// incremental backups cheap (paper §3.2.1). Both snapshots must come from
// the same store, with base the older one. Like ForEach, the callback runs
// with no store lock held.
func (sn *Snapshot) Diff(base *Snapshot, fn func(DiffChange) error) error {
	if base.cs != sn.cs {
		return fmt.Errorf("%w: diffing snapshots from different stores", ErrUsage)
	}
	if base.seq > sn.seq {
		return fmt.Errorf("%w: diff base snapshot (seq %d) is newer than target (seq %d)", ErrUsage, base.seq, sn.seq)
	}
	w := auditWalk{sn: sn, base: base, ciphertext: true}
	return w.run(func(ps []readPlan) error {
		for _, p := range ps {
			ch := DiffChange{CID: p.cid, Deleted: p.e.isEmpty(), Hash: p.e.hash, Ciphertext: p.ct}
			if err := fn(ch); err != nil {
				return err
			}
		}
		return nil
	})
}

// auditWalk is one audit's pass over a snapshot: every chunk of sn, or with
// base set the chunks whose entries differ between base and sn, ascending,
// a leaf per step of a mapCursor. A step holds s.mu shared — exclusively
// only to fault a map node in, as a read's plan act does — to resolve the
// next leaf and pin its chunks' records, which the read path's execute act
// then reads with no lock held. They cannot go stale: the snapshot keeps
// the cleaner off their segments.
type auditWalk struct {
	mapCursor
	sn, base   *Snapshot
	ciphertext bool // stop each read at the validated ciphertext
}

// run walks to the end, handing visit each leaf's plans — the chunks
// reached, ascending, with their reads' outcomes — with no lock held. A
// chunk base has and sn does not arrives with an empty entry and no read.
// A failed read ends the walk with its error, unless the walk collects
// damage and the failure is not ErrIO.
func (w *auditWalk) run(visit func(ps []readPlan) error) error {
	s := w.sn.cs
	// Lift base's root to sn's level by private nodes whose slot 0 holds
	// it: base is older, and a map only grows at the top.
	w.roots[0] = w.sn.root
	if w.base != nil {
		for w.roots[1] = w.base.root; w.roots[1].level < w.sn.root.level; {
			n := newMapNode(w.roots[1].level+1, 0, s.lm.fanout)
			n.kids[0], w.roots[1] = w.roots[1], n
		}
	}
	for !w.done {
		s.mu.RLock()
		ps, n, fault, err := w.stepLocked(false)
		s.mu.RUnlock()
		if fault {
			s.mu.Lock()
			ps, n, _, err = w.stepLocked(true)
			s.mu.Unlock()
		}
		if err != nil {
			return err
		}
		s.executeReads(ps, n)
		if s.closed.Load() {
			return ErrClosed
		}
		for _, p := range ps {
			if p.err != nil && (w.damage == nil || errors.Is(p.err, ErrIO)) {
				return p.err
			}
		}
		if err := visit(ps); err != nil {
			return err
		}
	}
	return nil
}

// stepLocked runs one step under s.mu: the next leaf's plans, n of them
// pinned, or fault at a map node that is not resident while s.mu is held
// only shared.
func (w *auditWalk) stepLocked(exclusive bool) (ps []readPlan, n int, fault bool, err error) {
	s := w.sn.cs
	switch {
	case s.closed.Load():
		return nil, 0, false, ErrClosed
	case w.sn.closed || w.base != nil && w.base.closed:
		return nil, 0, false, ErrSnapshotClosed
	}
	for len(ps) == 0 {
		leaves, fault, err := w.leafLocked(s.lm, exclusive)
		if fault || err != nil || w.done {
			return nil, 0, fault, err
		}
		for k := range s.lm.fanout {
			if !wanted(leaves, k) {
				continue
			}
			var e entry
			if leaves[0] != nil {
				e = leaves[0].entries[k]
			}
			p := readPlan{cid: ChunkID(w.cursor - uint64(s.lm.fanout) + uint64(k)), e: e, ciphertext: w.ciphertext, done: e.isEmpty()}
			if !p.done {
				if err := s.pinLocked(&p, e); err != nil {
					p.finish(nil, err)
				} else {
					n++
				}
			}
			ps = append(ps, p)
		}
	}
	return ps, n, false, nil
}
