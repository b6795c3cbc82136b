package chunkstore

import (
	"fmt"

	"tdb/internal/sec"
)

// The log cleaner (paper §3.2.1). Obsolete chunk versions accumulate in old
// segments as chunks are rewritten; the cleaner copies the still-live
// records of victim segments to the log tail and frees the victims,
// bounding database size at the configured utilization. Cleaning cost grows
// steeply with utilization — the effect Figure 11 measures.
//
// Safety: a segment is freed only after (a) every live record in it has
// been copied to the tail and (b) a durable commit has published the
// copies. The cycle's publishing commit is an ordinary durable commit
// record: recovery replays the relocated records like any committed write,
// and a checkpointed segment that is gone must have had all of its live
// bytes relocated by the replayed log (recovery.go). Map nodes are the
// exception: recovery loads checkpointed nodes from their checkpoint-time
// locations before replay reaches a relocation. A victim whose live
// map-node records the cycle relocated is therefore emptied but kept
// (nodeVictims) until a checkpoint has published the nodes' new locations;
// a later cycle frees it. A cycle run while map-node records written since
// the last checkpoint — by a checkpoint that never published, replayed at
// recovery — set the in-memory tree's node locations apart from that
// checkpoint's may find a record the checkpoint's tree needs looking dead,
// so it publishes with a checkpoint (nodesAfterCkpt). Either way the harden
// also pays any deferred superblock sync, so no victim is freed under a
// durable anchor that still references it. This subsumes the paper's
// nondurable-commit pin (§3.2.2): versions obsoleted by a nondurable commit
// are never reclaimed before the next durable commit, because cleaning
// itself publishes with a durable commit.

// targetDiskBytes returns the permitted total log size for the current
// amount of live data.
func (s *Store) targetDiskBytes() int64 {
	live := s.segs.totalLive()
	target := int64(float64(live) / s.cfg.MaxUtilization)
	// Always allow slack of two segments so a small database does not
	// thrash.
	slack := int64(2 * s.cfg.SegmentSize)
	if target < slack {
		target = slack
	}
	return target + int64(s.cfg.SegmentSize)
}

// cleanTriggerBytes returns the size at which post-commit cleaning starts.
// The gap above targetDiskBytes provides hysteresis: a cycle that fires on
// every commit nudging past the target evacuates one victim at a time, at
// its densest point and with a publishing commit and harden of its own, so
// cycles must be infrequent and do a batch of work. Without the gap
// update-c2 writes 18 % more bytes per operation.
func (s *Store) cleanTriggerBytes() int64 {
	target := s.targetDiskBytes()
	slack := target / 4
	if min := int64(8 * s.cfg.SegmentSize); slack < min {
		slack = min
	}
	return target + slack
}

// cleanLocked runs one cleaning cycle: it evacuates victim segments until
// the store fits its size target (or the copy budget runs out), then
// durably publishes all relocations with one durable commit record and
// frees the victims — those whose live map nodes it moved once a checkpoint
// has published. A checkpoint rewrites the dirty location map, so
// publishing through the log keeps cleaning from dominating the write
// volume. In aggressive (idle) mode the cycle compacts every segment
// holding garbage, regardless of the size target.
func (s *Store) cleanLocked(copyBudget int64, aggressive bool) error {
	if !aggressive && s.segs.totalSize() <= s.cleanTriggerBytes() {
		return nil
	}
	// Like every append-capable operation, cleaning must first discard the
	// orphaned tail of a failed commit; relocated records appended after it
	// would be truncated away by the next commit's rewind.
	if err := s.completePendingRewindLocked(); err != nil {
		return err
	}
	// Cleaning is a flush point: evacuation copies records between segments
	// and frees victims, which is simplest to reason about (and to scrub
	// afterwards) when the tail holds no buffered suffix.
	if err := s.segs.flushLocked(); err != nil {
		return err
	}
	var victims, held []uint64
	chosen := map[uint64]bool{}
	var freedPlanned int64
	checkpointed := false
	for copyBudget > 0 && len(victims)+len(held) < 64 {
		if !aggressive && s.segs.totalSize()-freedPlanned <= s.targetDiskBytes() {
			break
		}
		num, ok, blocked := s.pickVictim(aggressive, chosen)
		if !ok {
			if !blocked || checkpointed {
				break
			}
			// Eligible garbage exists but lies at or after the last
			// checkpoint, or awaits one; one checkpoint unblocks it.
			if err := s.checkpointLocked(); err != nil {
				return err
			}
			checkpointed = true
			continue
		}
		seg := s.segs.segs[num]
		liveBefore := seg.live
		nodes, err := s.evacuate(seg)
		if err != nil {
			return err
		}
		copyBudget -= liveBefore
		chosen[num] = true
		if nodes {
			held = append(held, num)
		} else {
			victims = append(victims, num)
			freedPlanned += seg.size
		}
		s.statCleanings++
	}
	if len(victims)+len(held) == 0 {
		return nil
	}
	// Evacuation relocated live records, so off-mutex reads planned against
	// the pre-clean map must fail revalidation and retry (their pinned old
	// segment stays readable until they unpin; see segment.readers).
	s.locEpoch.Add(1)
	// Durably publish the relocations, then free the victims. The victims
	// cannot be freed under a stale durable anchor — recovery would chase
	// its residual log into the freed files — so the superblock sync a
	// checkpoint defers is paid before any segment is unlinked: by the
	// publishing commit's harden, or here after a checkpoint.
	if s.nodesAfterCkpt {
		if err := s.checkpointLocked(); err != nil {
			return err
		}
		if err := s.syncSuperIfDirtyLocked(); err != nil {
			return err
		}
		victims, held = append(victims, held...), nil
	} else {
		n, err := s.appendCommitRecordLocked(true)
		if err != nil {
			return err
		}
		s.residualBytes += n
		if err := s.hardenLocked(); err != nil {
			return err
		}
	}
	for _, num := range held {
		s.nodeVictims[num] = true
	}
	for _, num := range victims {
		seg := s.segs.segs[num]
		if seg == nil {
			continue
		}
		if seg.live != 0 {
			return fmt.Errorf("%w: victim segment %d still has %d live bytes", ErrTampered, num, seg.live)
		}
		if err := s.segs.free(num); err != nil {
			return err
		}
	}
	return nil
}

// minPinnedSegment returns the lowest segment number that open snapshots
// still pin (everything at or below their creation tail), or MaxUint64 when
// no snapshot is open.
func (s *Store) minPinnedSegment() uint64 {
	pin := uint64(1<<63 - 1)
	first := true
	for snap := range s.snapshots {
		if first || snap.tailSeg < pin {
			pin = snap.tailSeg
			first = false
		}
	}
	if first {
		return ^uint64(0)
	}
	return pin
}

// pickVictim selects the lowest-utilization eligible segment not yet
// chosen. blocked reports that garbage exists but only at or after the last
// checkpoint (recovery could still replay from it, so it cannot be freed
// until a checkpoint advances past it) or in emptied victims whose map
// nodes the last checkpoint still reads there.
func (s *Store) pickVictim(aggressive bool, chosen map[uint64]bool) (uint64, bool, bool) {
	pin := s.minPinnedSegment()
	best := uint64(0)
	bestUtil := 2.0
	blocked := false
	for num, seg := range s.segs.segs {
		if chosen[num] || !seg.sealed || (pin != ^uint64(0) && num <= pin) {
			continue
		}
		if s.nodeVictims[num] {
			blocked = true // emptied, and freed once a checkpoint publishes
			continue
		}
		if seg.live >= seg.size-segHeaderSize {
			continue // fully live: evacuation would only rewrite data
		}
		// Profitability bound: evacuating a segment denser than the target
		// utilization costs more in copies than it frees; let it decay
		// first. Idle (aggressive) compaction takes anything with garbage.
		if !aggressive && float64(seg.live) > s.cfg.MaxUtilization*float64(seg.size) {
			continue
		}
		if num >= s.lastCkpt.Seg {
			blocked = true
			continue
		}
		util := float64(seg.live) / float64(seg.size)
		if util < bestUtil || (util == bestUtil && num < best) {
			best, bestUtil = num, util
		}
	}
	if bestUtil > 1.5 {
		return 0, false, blocked
	}
	return best, true, false
}

// evacuate copies every live record of seg to the log tail, updating the
// location map, and reports whether a live map-node record was among them.
// Records are validated before copying so that tampering in cold segments
// is caught rather than propagated.
func (s *Store) evacuate(seg *segment) (nodes bool, err error) {
	start := position{seg: seg.num, off: segHeaderSize}
	copied := int64(0)
	end, err := s.scanLog(start, func(loc Location, typ byte, body []byte) (bool, error) {
		if loc.Seg != seg.num {
			return false, nil
		}
		switch typ {
		case recWrite:
			cid, ciphertext, err := parseWriteRecord(body)
			if err != nil {
				return false, fmt.Errorf("%w: %v", ErrTampered, err)
			}
			cur, err := s.lm.get(cid)
			if err != nil {
				return false, err
			}
			if cur.loc != loc {
				return true, nil // obsolete version
			}
			if !sec.HashEqual(s.suite.Hash(ciphertext), cur.hash) {
				return false, fmt.Errorf("%w: chunk %d fails validation during cleaning", ErrTampered, cid)
			}
			// Copy the record verbatim: the ciphertext (and thus the hash)
			// is unchanged, only the location moves.
			rec := encodeRecord(recWrite, body)
			newLoc, err := s.appendLocked(rec)
			if err != nil {
				return false, err
			}
			if _, err := s.lm.set(cid, entry{loc: newLoc, hash: cur.hash}); err != nil {
				return false, err
			}
			s.adjustLive(newLoc, int64(newLoc.Len))
			s.adjustLive(loc, -int64(loc.Len))
			s.residualBytes += int64(newLoc.Len)
			copied += int64(newLoc.Len)
		case recMapNode:
			level, index, _, err := parseMapNodeRecord(body)
			if err != nil {
				return false, fmt.Errorf("%w: %v", ErrTampered, err)
			}
			live, err := s.nodeLiveAt(level, index, loc)
			if err != nil {
				return false, err
			}
			if !live {
				return true, nil
			}
			// Relocate the node by writing its CURRENT in-memory
			// serialization, never the stored copy: that may be a stale
			// version of a node that is dirty in memory, and copying it
			// forward would fork memory and disk. The stored bytes are never
			// used, so they need no check here; a node that is not resident
			// is loaded by cachedNodeAt and validated against its parent's
			// hash.
			node, err := s.cachedNodeAt(level, index)
			if err != nil {
				return false, err
			}
			// The serialization must carry its children's current hashes:
			// relocations earlier in this cycle changed leaves below without
			// refreshing the entries above them, and the copy is marked
			// clean with its hash below.
			s.lm.nodeHash(node)
			cur := node.serialize()
			// Reserve a fresh IV generation for the re-encryption; the old
			// location-derived seed could collide with another encryption's
			// seed in the shared IV namespace.
			gen, err := s.nextIVGenLocked()
			if err != nil {
				return false, err
			}
			curCipher, err := s.suite.Encrypt(cur, gen<<ivGenBits)
			if err != nil {
				return false, fmt.Errorf("chunkstore: re-encrypting map node during cleaning: %w", err)
			}
			rec := encodeRecord(recMapNode, mapNodeRecordBody(level, index, curCipher))
			newLoc, err := s.appendLocked(rec)
			if err != nil {
				return false, err
			}
			if err := s.noteNodeWritten(level, index, newLoc, s.suite.Hash(cur)); err != nil {
				return false, err
			}
			s.residualBytes += int64(newLoc.Len)
			copied += int64(newLoc.Len)
			nodes = true
		case recDealloc, recCheckpoint, recCommit, recSeal:
			// Never live.
		}
		return true, nil
	})
	if err != nil {
		return false, err
	}
	s.statCleanedBytes += copied
	if end.seg == seg.num && end.off < seg.size {
		// The byte-walk stopped at structurally invalid bytes mid-segment.
		// That is not the end of the segment's data: a record corrupted at
		// rest and since healed by Repair leaves garbage bytes here while
		// records beyond it may still be live, and a corrupted length field
		// means the walk cannot even find the next boundary. Fall back to
		// evacuating by the location map, which is the authority on what is
		// live regardless of the bytes in between. Its map nodes move at the
		// next checkpoint.
		marked, err := s.evacuateDamaged(seg)
		return nodes || marked, err
	}
	return nodes, nil
}

// evacuateDamaged relocates the remaining live records of a segment whose
// linear byte-walk is broken by structurally invalid bytes. Every chunk
// entry the location map still places in the segment is copied out after
// validation against its Merkle hash, and every live map node stored there
// is marked dirty so the next checkpoint rewrites it at the tail (with its
// usual liveness accounting); it reports whether there was any. Chunks
// whose records fail validation abort the clean with ErrTampered — they
// need Scrub and Repair first.
func (s *Store) evacuateDamaged(seg *segment) (nodes bool, err error) {
	type liveChunk struct {
		cid ChunkID
		e   entry
	}
	// Collect first: relocation mutates the map being walked.
	var chunks []liveChunk
	if err := s.lm.forEachEntry(s.lm.root, func(cid ChunkID, e entry) error {
		if e.loc.Seg == seg.num {
			chunks = append(chunks, liveChunk{cid, e})
		}
		return nil
	}); err != nil {
		return false, err
	}
	for _, c := range chunks {
		typ, body, err := s.segs.readRecord(c.e.loc)
		if err != nil {
			return false, err
		}
		if _, err := s.checkChunkRecord(c.cid, c.e, typ, body); err != nil {
			return false, fmt.Errorf("chunkstore: cleaning segment %d: %w", seg.num, err)
		}
		rec := encodeRecord(recWrite, body)
		newLoc, err := s.appendLocked(rec)
		if err != nil {
			return false, err
		}
		if _, err := s.lm.set(c.cid, entry{loc: newLoc, hash: c.e.hash}); err != nil {
			return false, err
		}
		s.adjustLive(newLoc, int64(newLoc.Len))
		s.adjustLive(c.e.loc, -int64(c.e.loc.Len))
		s.residualBytes += int64(newLoc.Len)
		s.statCleanedBytes += int64(newLoc.Len)
	}
	return s.dirtyNodesIn(seg.num)
}

// dirtyNodesIn marks every live location-map node stored in segment num
// dirty and reports whether there was any. A node's stored location says
// nothing about its descendants', so every non-resident inner node is
// loaded; a non-resident leaf is loaded only if its own stored copy lies in
// the segment. dirtyNodes() propagates the mark to ancestors, so the next
// checkpoint relocates the marked nodes and updates their parents.
func (s *Store) dirtyNodesIn(num uint64) (marked bool, err error) {
	var walk func(n *mapNode) error
	walk = func(n *mapNode) error {
		if !n.loc.IsZero() && n.loc.Seg == num {
			n.dirty, marked = true, true
		}
		if n.level == 0 {
			return nil
		}
		for i := range n.entries {
			kid := n.kids[i]
			if kid == nil {
				if e := n.entries[i]; e.isEmpty() || (n.level == 1 && e.loc.Seg != num) {
					continue
				}
				var err error
				kid, err = s.lm.loadChild(n, i)
				if err != nil {
					return err
				}
			}
			if err := walk(kid); err != nil {
				return err
			}
		}
		return nil
	}
	err = walk(s.lm.root)
	return marked, err
}

// cachedNodeAt returns the in-memory node at (level,index), loading it from
// its current stored copy if necessary. The caller must have established
// that the node is live in the current tree.
func (s *Store) cachedNodeAt(level int, index uint64) (*mapNode, error) {
	m := s.lm
	if level == m.height && index == 0 {
		return m.root, nil
	}
	cid := ChunkID(index * m.span(level))
	n := m.root
	for n.level > level {
		i := m.childIndex(cid, n.level)
		kid := n.kids[i]
		if kid == nil {
			var err error
			kid, err = m.loadChild(n, i)
			if err != nil {
				return nil, err
			}
		}
		n = kid
	}
	if n.level != level || n.index != index {
		return nil, fmt.Errorf("%w: node lookup for (%d,%d) reached (%d,%d)", ErrTampered, level, index, n.level, n.index)
	}
	return n, nil
}

// nodeLiveAt reports whether the stored copy of map node (level,index) at
// loc is the current one.
func (s *Store) nodeLiveAt(level int, index uint64, loc Location) (bool, error) {
	m := s.lm
	if level > m.height {
		return false, nil
	}
	if level == m.height && index == 0 {
		return m.root.loc == loc, nil
	}
	if level == m.height {
		return false, nil
	}
	cid := ChunkID(index * m.span(level))
	if uint64(cid) >= m.capacity() {
		return false, nil
	}
	n := m.root
	for n.level > level+1 {
		i := m.childIndex(cid, n.level)
		kid := n.kids[i]
		if kid == nil {
			if n.entries[i].isEmpty() {
				return false, nil
			}
			var err error
			kid, err = m.loadChild(n, i)
			if err != nil {
				return false, err
			}
		}
		n = kid
	}
	return n.entries[m.childIndex(cid, level+1)].loc == loc, nil
}
