package chunkstore

import (
	"fmt"
	"maps"
	"slices"
)

// The log cleaner (paper §3.2.1). Obsolete chunk versions accumulate in old
// segments as chunks are rewritten; the cleaner copies the still-live chunk
// records of victim segments to the log tail and frees the victims,
// bounding database size at the configured utilization. Cleaning cost grows
// steeply with utilization — the effect Figure 11 measures. The cleaner
// never sees a map node: nodes live in node segments, which checkpoints
// write and free (checkpointLocked).
//
// Safety: a victim is freed only after every live chunk record in it has
// been copied to the tail and a durable commit has published the copies.
// Recovery replays the relocated records like any committed write, so a
// checkpointed segment may be gone only if the replayed log relocated all
// of its live bytes (recovery.go). Victims lie before the last checkpoint,
// where recovery never replays from, and a checkpoint's superblock slot is
// synced before it returns, so no victim is freed under a durable anchor
// that references it. This subsumes the paper's nondurable-commit
// pin (§3.2.2): cleaning publishes with a durable commit of its own.

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
// frees the victims. A checkpoint rewrites the dirty location map, so
// publishing through the log keeps cleaning from dominating the write
// volume. In aggressive (idle) mode the cycle compacts every segment
// holding garbage, regardless of the size target.
func (s *Store) cleanLocked(copyBudget int64, aggressive bool) error {
	if !aggressive && s.segs.totalSize() <= s.cleanTriggerBytes() {
		return nil
	}
	// Cleaning is a flush point: evacuation copies records between segments
	// and frees victims, which is simplest to reason about (and to scrub
	// afterwards) when no segment holds buffered bytes.
	if err := s.segs.flushLocked(); err != nil {
		return err
	}
	var victims []uint64
	chosen := map[uint64]bool{}
	var freedPlanned int64
	checkpointed := false
	for copyBudget > 0 && len(victims) < 64 {
		if !aggressive && s.segs.totalSize()-freedPlanned <= s.targetDiskBytes() {
			break
		}
		num, ok, blocked := s.pickVictim(aggressive, chosen)
		if !ok {
			if !blocked || checkpointed {
				break
			}
			// Eligible garbage exists but lies at or after the last
			// checkpoint; one checkpoint unblocks it.
			if err := s.checkpointLocked(); err != nil {
				return err
			}
			checkpointed = true
			continue
		}
		seg := s.segs.segs[num]
		liveBefore := seg.live
		if err := s.evacuate(seg); err != nil {
			return err
		}
		copyBudget -= liveBefore
		chosen[num] = true
		victims = append(victims, num)
		freedPlanned += seg.size
		s.statCleanings++
	}
	if len(victims) == 0 {
		return nil
	}
	// Durably publish the relocations, then free the victims: freed before
	// the relocations are durable, a crash would recover a map that still
	// points into them.
	s.residualBytes += s.appendCommitRecordLocked(true)
	if err := s.hardenLocked(); err != nil {
		return err
	}
	for _, num := range victims {
		if live := s.segs.segs[num].live; live != 0 {
			return fmt.Errorf("%w: victim segment %d still has %d live bytes", ErrTampered, num, live)
		}
		if err := s.segs.free(num); err != nil {
			return err
		}
	}
	return nil
}

// firstUnpinned returns the lowest segment number no open snapshot pins: a
// snapshot pins the segments at or below its creation tail.
func (s *Store) firstUnpinned() uint64 {
	if len(s.snapshots) == 0 {
		return 0
	}
	pin := ^uint64(0)
	for snap := range s.snapshots {
		pin = min(pin, snap.tailSeg)
	}
	return pin + 1
}

// pickVictim selects the lowest-utilization eligible chunk segment not yet
// chosen. blocked reports that garbage exists but only at or after the last
// checkpoint: recovery could still replay from it, so it cannot be freed
// until a checkpoint advances past it.
func (s *Store) pickVictim(aggressive bool, chosen map[uint64]bool) (num uint64, ok, blocked bool) {
	unpinned := s.firstUnpinned()
	bestUtil := 2.0
	for n, seg := range s.segs.segs {
		if chosen[n] || seg.nodes || !seg.sealed || n < unpinned {
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
		if n >= s.lastCkpt.Seg {
			blocked = true
			continue
		}
		util := float64(seg.live) / float64(seg.size)
		if util < bestUtil || (util == bestUtil && n < num) {
			num, bestUtil = n, util
		}
	}
	if bestUtil > 1.5 {
		return 0, false, blocked
	}
	return num, true, false
}

// evacuate copies every live chunk record of seg to the log tail, updating
// the location map.
func (s *Store) evacuate(seg *segment) error {
	start := position{seg: seg.num, off: segHeaderSize}
	end, err := s.scanLog(start, func(loc Location, typ byte, body []byte) (bool, error) {
		if loc.Seg != seg.num {
			return false, nil
		}
		if typ != recWrite {
			return true, nil // dealloc, commit and seal records are never live
		}
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
		return true, nil
	})
	if err != nil {
		return err
	}
	if end.seg == seg.num && end.off < seg.size {
		// The byte-walk stopped at structurally invalid bytes mid-segment.
		// That is not the end of the segment's data: a record corrupted at
		// rest and since healed by Repair leaves garbage bytes here while
		// records beyond it may still be live, and a corrupted length field
		// means the walk cannot even find the next boundary. Fall back to
		// evacuating by the location map, which is the authority on what is
		// live regardless of the bytes in between.
		return s.evacuateDamaged(seg)
	}
	return nil
}

// evacuateDamaged relocates every chunk the location map still places in a
// segment whose linear byte-walk is broken by structurally invalid bytes.
// Chunks whose records fail validation abort the clean with ErrTampered —
// they need Scrub and Repair first.
func (s *Store) evacuateDamaged(seg *segment) error {
	// Collect first: relocation mutates the map being walked.
	live := map[ChunkID]entry{}
	if err := s.lm.forEachEntry(s.lm.root, func(cid ChunkID, e entry) error {
		if e.loc.Seg == seg.num {
			live[cid] = e
		}
		return nil
	}); err != nil {
		return err
	}
	for _, cid := range slices.Sorted(maps.Keys(live)) {
		typ, body, err := s.segs.readRecord(live[cid].loc)
		if err != nil {
			return err
		}
		if err := s.relocateChunk(cid, live[cid], typ, body); err != nil {
			return err
		}
	}
	return nil
}

// relocateChunk copies the stored record (typ, body) of chunk cid's live
// version e verbatim to the log tail and points the map at the copy: the
// ciphertext, and so the digest, is unchanged, only the location moves. The
// record is validated first (checkChunkRecord), so tampering in a cold
// segment is caught rather than propagated. Every fallible step — the
// check, a flush over the cap, the map path's fault-in — runs before the
// append, so a failure leaves the chunk where it was; the relocations
// before it are applied and unsigned, which the next seal signs
// (appendSealLocked).
func (s *Store) relocateChunk(cid ChunkID, e entry, typ byte, body []byte) error {
	if _, err := s.checkChunkRecord(cid, e, typ, body); err != nil {
		return fmt.Errorf("chunkstore: cleaning segment %d: %w", e.loc.Seg, err)
	}
	if err := s.segs.flushOverCapLocked(); err != nil {
		return err
	}
	if err := s.lm.pin(cid); err != nil {
		return err
	}
	loc := s.appendLocked(encodeRecord(recWrite, body))
	s.lm.setPinned(cid, entry{loc: loc, hash: e.hash})
	s.adjustLive(loc, int64(loc.Len))
	s.adjustLive(e.loc, -int64(e.loc.Len))
	s.residualBytes += int64(loc.Len)
	s.statCleanedBytes += int64(loc.Len)
	return nil
}
