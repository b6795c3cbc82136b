package chunkstore

import "fmt"

// The log cleaner (paper §3.2.1). Obsolete chunk versions accumulate in old
// segments as chunks are rewritten; the cleaner copies the still-live
// records of victim segments to the log tail and frees the victims,
// bounding database size at the configured utilization. Cleaning cost grows
// steeply with utilization — the effect Figure 11 measures.
//
// Safety: a segment is freed only after (a) every live record in it has
// been copied to the tail — chunks by the cleaner, map nodes by a
// checkpoint — and (b) a durable commit has published the copies. The
// cycle's publishing commit is an ordinary durable commit record: recovery
// replays the relocated records like any committed write, and a
// checkpointed segment that is gone must have had all of its live bytes
// relocated by the replayed log (recovery.go). Map nodes are the
// exception, and the cleaner does not copy them: the checkpoint is the only
// writer of map-node records, and recovery loads checkpointed nodes from
// their checkpoint-time locations. A cycle marks each live map node it finds
// in a victim dirty and holds the victim (nodeVictims) until a checkpoint
// has rewritten the nodes at the tail and published their new locations; a
// later cycle frees it. A cycle run while map-node records written since
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
// frees the victims — those holding live map nodes once a checkpoint has
// rewritten them. A checkpoint rewrites the dirty location map, so
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
	pin := ^uint64(0)
	for snap := range s.snapshots {
		pin = min(pin, snap.tailSeg)
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

// evacuate copies every live chunk record of seg to the log tail, updating
// the location map, and marks every live map node stored in seg dirty; it
// reports whether there was any such node. The next checkpoint rewrites the
// marked nodes at the tail, as it rewrites every dirty node: the cleaner
// writes no map-node record of its own.
//
// Marking in place is safe under open snapshots. pickVictim never takes a
// segment at or below an open snapshot's tail, so the node's copy in seg
// was written after every open snapshot was taken. No open snapshot holds
// the node, then: a checkpoint writes copies of the nodes snapshots share
// (dirtyNodes), so every node a snapshot holds stays stored at or below
// its tail.
func (s *Store) evacuate(seg *segment) (nodes bool, err error) {
	start := position{seg: seg.num, off: segHeaderSize}
	end, err := s.scanLog(start, func(loc Location, typ byte, body []byte) (bool, error) {
		if loc.Seg != seg.num {
			return false, nil
		}
		switch typ {
		case recWrite:
			cid, _, err := parseWriteRecord(body)
			if err != nil {
				return false, err
			}
			cur, err := s.lm.get(cid)
			if err != nil {
				return false, err
			}
			if cur.loc == loc {
				return true, s.relocateChunk(cid, cur, typ, body)
			}
		case recMapNode:
			level, index, _, err := parseMapNodeRecord(body)
			if err != nil {
				return false, err
			}
			n, err := s.liveNodeAt(level, index, loc)
			if err != nil {
				return false, err
			}
			if n != nil {
				n.dirty, nodes = true, true
			}
		}
		// Dealloc, checkpoint, commit and seal records are never live.
		return true, nil
	})
	if err != nil {
		return false, err
	}
	if end.seg == seg.num && end.off < seg.size {
		// The byte-walk stopped at structurally invalid bytes mid-segment.
		// That is not the end of the segment's data: a record corrupted at
		// rest and since healed by Repair leaves garbage bytes here while
		// records beyond it may still be live, and a corrupted length field
		// means the walk cannot even find the next boundary. Fall back to
		// evacuating by the location map, which is the authority on what is
		// live regardless of the bytes in between.
		marked, err := s.evacuateDamaged(seg)
		return nodes || marked, err
	}
	return nodes, nil
}

// evacuateDamaged relocates the remaining live records of a segment whose
// linear byte-walk is broken by structurally invalid bytes. Every chunk
// entry the location map still places in the segment is relocated, and
// every live map node stored there is marked dirty (dirtyNodesIn); it
// reports whether there was any. Chunks whose records fail validation abort
// the clean with ErrTampered — they need Scrub and Repair first.
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
		if err := s.relocateChunk(c.cid, c.e, typ, body); err != nil {
			return false, err
		}
	}
	return s.dirtyNodesIn(seg.num)
}

// relocateChunk copies the stored record (typ, body) of chunk cid's live
// version e verbatim to the log tail and points the map at the copy: the
// ciphertext, and so the hash, is unchanged, only the location moves. The
// record is validated first (checkChunkRecord), so tampering in a cold
// segment is caught rather than propagated.
func (s *Store) relocateChunk(cid ChunkID, e entry, typ byte, body []byte) error {
	if _, err := s.checkChunkRecord(cid, e, typ, body); err != nil {
		return fmt.Errorf("chunkstore: cleaning segment %d: %w", e.loc.Seg, err)
	}
	loc, err := s.appendLocked(encodeRecord(recWrite, body))
	if err != nil {
		return err
	}
	if _, err := s.lm.set(cid, entry{loc: loc, hash: e.hash}); err != nil {
		return err
	}
	s.adjustLive(loc, int64(loc.Len))
	s.adjustLive(e.loc, -int64(e.loc.Len))
	s.residualBytes += int64(loc.Len)
	s.statCleanedBytes += int64(loc.Len)
	return nil
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
				if kid, err = s.lm.loadChild(n, i); err != nil {
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

// liveNodeAt returns the in-memory map node (level,index), loading it as
// needed, if the current tree's stored copy of it is the one at loc, and
// nil otherwise.
func (s *Store) liveNodeAt(level int, index uint64, loc Location) (*mapNode, error) {
	m := s.lm
	if level >= m.height {
		if level == m.height && index == 0 && m.root.loc == loc {
			return m.root, nil
		}
		return nil, nil
	}
	p, err := m.descend(ChunkID(index*m.span(level)), level+1, false)
	if err != nil || p.node == nil || p.node.entries[p.slot].loc != loc {
		return nil, err
	}
	n := p.node.kids[p.slot]
	if n == nil {
		if n, err = m.loadChild(p.node, p.slot); err != nil {
			return nil, err
		}
	}
	if n.index != index {
		return nil, fmt.Errorf("%w: node lookup for (%d,%d) reached (%d,%d)", ErrTampered, level, index, n.level, n.index)
	}
	return n, nil
}
