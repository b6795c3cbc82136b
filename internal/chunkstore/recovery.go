package chunkstore

import (
	"fmt"

	"tdb/internal/sec"
)

// recover rebuilds the store state from the superblock's checkpoint plus
// the residual log (paper §3: "upon recovery, the portion of the log
// written since the last checkpoint ... is read to restore the latest
// committed state"). The recovered state is authenticated end to end: the
// checkpoint record and the final durable commit record carry MACs, every
// loaded map node and chunk is validated against its parent hash, and the
// recomputed Merkle root must match the signed root of the last durable
// commit, whose recorded one-way counter value must match the hardware
// counter (replay detection).
func (s *Store) recover(sb superblock) error {
	if sb.suiteName != s.suite.Name() {
		return fmt.Errorf("%w: database uses suite %q, store opened with %q", ErrUsage, sb.suiteName, s.suite.Name())
	}
	s.cfg.Fanout = sb.fanout
	s.cfg.SegmentSize = sb.segmentSize

	// Load all segment files.
	names, err := s.cfg.Store.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		if num, ok := parseSegmentName(name); ok {
			if _, err := s.segs.open(num); err != nil {
				return err
			}
		}
	}

	// Read and authenticate the checkpoint record.
	typ, body, err := s.segs.readRecord(sb.ckptLoc)
	if err != nil {
		return err
	}
	if typ != recCheckpoint {
		return fmt.Errorf("%w: superblock points at record type %d", ErrTampered, typ)
	}
	mac, ciphertext, err := parseCheckpointRecord(body)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if !sec.VerifyMAC(s.suite, ciphertext, mac) {
		return fmt.Errorf("%w: checkpoint record fails authentication", ErrTampered)
	}
	plain, err := s.suite.Decrypt(ciphertext)
	if err != nil {
		return fmt.Errorf("%w: decrypting checkpoint: %v", ErrTampered, err)
	}
	ckpt, err := decodeCkptPayload(plain, sb.ckptLoc.Seg)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	s.alloc = ckpt.alloc
	// The checkpoint's own segment and its root's are node segments the list
	// leaves out; a listed one may be gone, freed once the checkpoint was
	// published. Replay marks the segments of later checkpoints' nodes.
	for _, num := range append(ckpt.nodeSegs, ckpt.rootLoc.Seg, sb.ckptLoc.Seg) {
		if seg, ok := s.segs.segs[num]; ok {
			seg.nodes = true
		}
	}

	// Apply the checkpoint's segment liveness table; prune orphans. A listed
	// segment may be gone only if the residual log relocated every live byte
	// of it — a cleaner victim freed after its publishing commit — which
	// replay settles below.
	s.missingLive = make(map[uint64]int64)
	for num, live := range ckpt.segLive {
		if seg, ok := s.segs.segs[num]; ok {
			seg.live = live
		} else if live > 0 {
			s.missingLive[num] = live
		}
	}
	for _, num := range s.segs.numbers() {
		if _, inTable := ckpt.segLive[num]; !inTable && num < sb.ckptLoc.Seg {
			// A pre-checkpoint segment unknown to the checkpoint: a leftover
			// from an interrupted cleaner free, or attacker chaff. No
			// committed state can reference it.
			if err := s.segs.free(num); err != nil {
				return err
			}
		}
	}

	// Load and validate the map root.
	if err := s.loadRoot(ckpt); err != nil {
		return err
	}

	// Pass 1: scan the residual log for the last durable commit, and for
	// the seal of its round. The open round continues from the checkpoint.
	start := position{seg: sb.ckptLoc.Seg, off: int64(sb.ckptLoc.Off) + int64(sb.ckptLoc.Len)}
	var (
		lastDurable    commitRecord
		lastDurableEnd position
		haveDurable    bool
		lastCommit     commitRecord
		round          = ckpt.round
		seal           struct {
			stamp  uint64
			end    position
			anchor commitRecord
			found  bool
		}
		expectSeq = ckpt.seqNext
		scanned   int64
	)
	_, err = s.scanLog(start, func(loc Location, typ byte, body []byte) (bool, error) {
		scanned += int64(loc.Len)
		switch {
		case typ == recSeal && s.cfg.Counter != nil:
			// A seal that does not cover exactly the round's commit records
			// is not the round's: the valid log ends here, as at an
			// unauthenticated commit record.
			if !round.sealedBy(s.suite, body) {
				return false, nil
			}
			seal.stamp, seal.anchor, seal.found = round.stamp, lastCommit, true
			seal.end = position{seg: loc.Seg, off: int64(loc.Off) + int64(loc.Len)}
			round.count, round.chain = 0, nil
			return true, nil
		case typ != recCommit:
			return true, nil
		}
		cr, signed, err := parseCommitRecord(body)
		if err != nil {
			return false, nil // structurally torn: end of valid log
		}
		if !sec.VerifyMAC(s.suite, signed, cr.mac) {
			return false, nil // unauthenticated tail: ignore from here on
		}
		if cr.seq != expectSeq {
			// A sequence gap means records were lost or spliced out here;
			// stop scanning. If the log was maliciously truncated, the
			// one-way counter check below flags the stale durable state.
			return false, nil
		}
		expectSeq++
		cr.rootHash = append([]byte(nil), cr.rootHash...)
		lastCommit = cr
		if cr.durable {
			lastDurable = cr
			lastDurableEnd = position{seg: loc.Seg, off: int64(loc.Off) + int64(loc.Len)}
			haveDurable = true
			if s.cfg.Counter != nil {
				round.add(s.suite, cr.counter, cr.mac)
			}
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	if !haveDurable {
		// The checkpoint is always followed by its own durable commit; not
		// finding any durable commit means the log tail was destroyed.
		return fmt.Errorf("%w: no durable commit follows the checkpoint", ErrTampered)
	}
	// The recovered state ends at the last durable commit, or at its round's
	// seal when one follows it: the round's sync made every record before
	// the seal durable, nondurable commits appended inside the round too.
	end, anchor := lastDurableEnd, lastDurable
	sealed := seal.found && seal.stamp == lastDurable.counter
	if sealed {
		end, anchor = seal.end, seal.anchor
	}

	// Validate the one-way counter against the last durable commit before
	// replaying (fail fast on replayed stale databases). A log behind the
	// counter is a rolled-back copy, and so is a log whose newest round the
	// counter has reached but whose seal is missing or short: the log was
	// cut inside an acknowledged round. A log ahead of the counter is a
	// crash between a round's sync and its advance — with hardenDepth rounds
	// in flight plus the open stamp, up to hardenDepth+1 stamps ahead —
	// never a replay.
	if s.cfg.Counter != nil {
		hw := s.counterVal.Load()
		if lastDurable.counter < hw || lastDurable.counter > hw+hardenDepth+1 {
			return fmt.Errorf("%w: database counter %d does not match one-way counter %d (replay attack?)",
				ErrTampered, lastDurable.counter, hw)
		}
		if lastDurable.counter == hw && !sealed {
			return fmt.Errorf("%w: round %d reached the one-way counter but its seal is missing or short (log cut inside the round?)",
				ErrTampered, hw)
		}
	}

	// Pass 2: replay records up to the recovered end.
	if err := s.replay(start, end); err != nil {
		return err
	}
	for num, live := range s.missingLive {
		if live > 0 {
			return fmt.Errorf("%w: segment %d with %d live bytes is missing", ErrTampered, num, live)
		}
	}
	s.missingLive = nil
	s.commitSeq = anchor.seq
	s.durableSeq, s.sealedSeq = lastDurable.seq, anchor.seq
	s.gc.noteHardened(anchor.seq)

	// The recomputed Merkle root must match the signed root.
	if !sec.HashEqual(s.lm.rootHash(), anchor.rootHash) {
		return fmt.Errorf("%w: recovered database root hash does not match signed commit", ErrTampered)
	}

	// Discard the unreachable tail beyond the recovered end so new appends
	// continue from a clean position.
	if err := s.truncateTail(end); err != nil {
		return err
	}
	s.signedMark = s.segs.mark()
	s.lastCkpt = sb.ckptLoc
	s.residualBytes = scanned

	// Catch the counter up, one increment per stamp. The rounds it passes
	// crashed before their advance, perhaps before their sync too: their
	// records may have reached the files and not the disk, so the residual
	// log is synced first, or a second crash could take them back behind
	// the caught-up counter. An unsealed newest round never reached the
	// counter, so the records present are the whole round: it is sealed
	// first, or the caught-up counter would read it as cut. This seal is
	// not bounded like a round's (sealOpenRoundLocked): every stamp the
	// log holds is paid before the store takes a commit.
	if s.cfg.Counter != nil && lastDurable.counter > s.counterVal.Load() {
		if !sealed {
			s.round = round
			s.appendSealLocked()
		}
		for _, num := range s.segs.numbers() {
			if num >= sb.ckptLoc.Seg {
				s.segs.segs[num].synced = false
			}
		}
		if err := s.segs.syncDirty(); err != nil {
			return err
		}
		if err := s.advanceCounter(lastDurable.counter); err != nil {
			return err
		}
	}
	s.stampCtr, s.sealedCtr = lastDurable.counter, lastDurable.counter
	return nil
}

// loadRoot loads the location map root node recorded in the checkpoint.
func (s *Store) loadRoot(ckpt ckptPayload) error {
	typ, body, err := s.segs.readRecord(ckpt.rootLoc)
	if err != nil {
		return err
	}
	if typ != recMapNode {
		return fmt.Errorf("%w: checkpoint root points at record type %d", ErrTampered, typ)
	}
	level, index, ciphertext, err := parseMapNodeRecord(body)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	plain, err := s.suite.Decrypt(ciphertext)
	if err != nil {
		return fmt.Errorf("%w: decrypting map root: %v", ErrTampered, err)
	}
	if !sec.HashEqual(s.suite.Hash(plain), ckpt.rootHash) {
		return fmt.Errorf("%w: map root fails hash validation", ErrTampered)
	}
	root, err := deserializeMapNode(plain, s.cfg.Fanout)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if root.level != ckpt.height || root.index != 0 || level != ckpt.height || index != 0 {
		return fmt.Errorf("%w: map root has position (%d,%d), want (%d,0)", ErrTampered, root.level, root.index, ckpt.height)
	}
	root.loc = ckpt.rootLoc
	root.hash = append([]byte(nil), ckpt.rootHash...)
	root.hashStale = false
	s.lm = &locMap{cs: s, fanout: s.cfg.Fanout, root: root, height: ckpt.height, budget: s.cfg.CacheBytes}
	s.lm.registerNode(root)

	// Count committed chunks for consistency checks; derived lazily would
	// do, but walking the checkpointed tree here keeps Stats meaningful.
	// (The walk also validates the checkpointed map spine.)
	count := int64(0)
	if err := s.lm.forEachEntry(root, func(ChunkID, entry) error {
		count++
		return nil
	}); err != nil {
		return err
	}
	s.chunkCount = count
	return nil
}

// position is a byte position in the log.
type position struct {
	seg uint64
	off int64
}

// scanLog walks valid records from start until the callback stops it, a
// structurally invalid record is reached (torn tail), or the log ends. It
// returns the position after the last scanned record.
func (s *Store) scanLog(start position, fn func(loc Location, typ byte, body []byte) (bool, error)) (position, error) {
	pos := start
	for {
		seg, ok := s.segs.segs[pos.seg]
		if !ok {
			return pos, nil
		}
		if pos.off >= seg.size {
			// End of segment: continue with the next one if present (numbers
			// are dense within the residual) and created when this one ended
			// here. A crash may keep the next one's unsynced writes and lose
			// this one's, and the log must not skip the lost bytes.
			if next, ok := s.segs.segs[pos.seg+1]; !ok || next.prev != pos.off {
				return pos, nil
			}
			pos = position{seg: pos.seg + 1, off: segHeaderSize}
			continue
		}
		var hdr [recordHeaderSize]byte
		if pos.off+recordHeaderSize > seg.size {
			return pos, nil // torn header
		}
		if err := s.segs.readAt(seg, hdr[:], pos.off); err != nil {
			return pos, err
		}
		typ, bodyLen, err := decodeRecordHeader(hdr[:])
		if err != nil || typ < recWrite || typ > recSeal {
			return pos, nil
		}
		recLen := int64(recordHeaderSize) + int64(bodyLen)
		if pos.off+recLen > seg.size {
			return pos, nil // torn body
		}
		rec := make([]byte, recLen)
		if err := s.segs.readAt(seg, rec, pos.off); err != nil {
			return pos, err
		}
		if !checkRecordCRC(rec) {
			return pos, nil
		}
		loc := Location{Seg: pos.seg, Off: uint32(pos.off), Len: uint32(recLen)}
		cont, err := fn(loc, typ, rec[recordHeaderSize:])
		if err != nil {
			return pos, err
		}
		pos.off += recLen
		if !cont {
			return pos, nil
		}
	}
}

// replay applies residual log records from start up to stop (exclusive of
// anything at or beyond stop).
func (s *Store) replay(start, stop position) error {
	_, err := s.scanLog(start, func(loc Location, typ byte, body []byte) (bool, error) {
		if loc.Seg > stop.seg || (loc.Seg == stop.seg && int64(loc.Off) >= stop.off) {
			return false, nil
		}
		switch typ {
		case recWrite:
			cid, ciphertext, err := parseWriteRecord(body)
			if err != nil {
				return false, fmt.Errorf("%w: %v", ErrTampered, err)
			}
			s.alloc.noteWritten(cid)
			old, err := s.lm.set(cid, entry{loc: loc, hash: s.suite.Digest(nil, ciphertext)})
			if err != nil {
				return false, err
			}
			s.adjustLive(loc, int64(loc.Len))
			if !old.isEmpty() {
				s.adjustLive(old.loc, -int64(old.loc.Len))
			} else {
				s.chunkCount++
			}
		case recDealloc:
			cid, err := parseDeallocRecord(body)
			if err != nil {
				return false, fmt.Errorf("%w: %v", ErrTampered, err)
			}
			old, err := s.lm.clear(cid)
			if err != nil {
				return false, err
			}
			if !old.isEmpty() {
				s.adjustLive(old.loc, -int64(old.loc.Len))
				s.chunkCount--
			}
			s.alloc.release(cid)
		case recMapNode:
			level, index, ciphertext, err := parseMapNodeRecord(body)
			if err != nil {
				return false, fmt.Errorf("%w: %v", ErrTampered, err)
			}
			plain, err := s.suite.Decrypt(ciphertext)
			if err != nil {
				return false, fmt.Errorf("%w: decrypting replayed map node: %v", ErrTampered, err)
			}
			if err := s.noteNodeWritten(level, index, loc, s.suite.Hash(plain)); err != nil {
				return false, err
			}
			s.segs.segs[loc.Seg].nodes = true
		case recCheckpoint, recCommit, recSeal:
			// Checkpoint payloads matter only through the superblock; commit
			// and seal records delimit state but carry no data.
		}
		return true, nil
	})
	return err
}

// noteNodeWritten records, while replay applies a map-node record, that the
// node's stored copy now lives at loc with content hash h: the parent entry
// (or the root pointer) is updated the same way the original checkpoint did
// it, keeping the recomputed Merkle root byte-identical.
func (s *Store) noteNodeWritten(level int, index uint64, loc Location, h []byte) error {
	m := s.lm
	for m.height < level {
		m.grow(ChunkID(m.capacity()))
	}
	kid, old := m.root, m.root.loc
	if level != m.height || index != 0 {
		// Descend to the parent, creating or loading nodes as needed. The
		// parent chain exists: data writes earlier in the residual created
		// it.
		p, err := m.descend(ChunkID(index*m.span(level)), level+1, writePath)
		if err != nil {
			return err
		}
		e := &p.node.entries[p.slot]
		old, *e = e.loc, entry{loc: loc, hash: h}
		kid = p.node.kids[p.slot]
	}
	if kid != nil {
		kid.loc = loc
		// Clear the dirty flag only when the stored copy really matches the
		// in-memory content; otherwise the node must still be rewritten at
		// the next checkpoint (and the usual nodeHash refresh will replace
		// the entry hash set above with the current content hash).
		if sec.HashEqual(s.suite.Hash(kid.serialize()), h) {
			kid.dirty = false
			kid.hash = h
			kid.hashStale = false
		}
	}
	s.adjustLive(loc, int64(loc.Len))
	if !old.IsZero() {
		s.adjustLive(old, -int64(old.Len))
	}
	return nil
}

// truncateTail removes log content beyond the last durable commit: later
// segments are deleted and the containing segment is truncated, becoming
// the tail that new appends extend.
func (s *Store) truncateTail(end position) error {
	for _, num := range s.segs.numbers() {
		if num > end.seg {
			seg := s.segs.segs[num]
			if seg.live > 0 {
				return fmt.Errorf("%w: post-commit segment %d has live data", ErrTampered, num)
			}
			if err := s.segs.free(num); err != nil {
				return err
			}
		}
	}
	seg, ok := s.segs.segs[end.seg]
	if !ok {
		return fmt.Errorf("%w: tail segment %d missing", ErrTampered, end.seg)
	}
	// The cut is unsynced: the harden of the next appends, which may go to
	// a segment of their own, must sync it too.
	seg.synced = seg.size == end.off
	if seg.size > end.off {
		if err := s.segs.truncate(seg, end.off); err != nil {
			return err
		}
		seg.size, seg.flushed = end.off, end.off
	}
	seg.sealed = false
	s.segs.tail = seg
	s.segs.next = end.seg + 1
	return nil
}
