package chunkstore

import (
	"fmt"
	"runtime"
	"sync"

	"tdb/internal/sec"
)

// The two-stage commit pipeline.
//
// Stage 1 (prepareBatch) runs OUTSIDE the store mutex: it encrypts every
// write payload and digests the resulting ciphertext, fanned out across
// worker goroutines. Crypto dominates commit CPU cost under the paper's
// suites (§7.3), so moving it off the serialized critical path lets
// concurrent committers use every core while only the short stage 2
// serializes.
//
// Stage 2 (commitPreparedLocked) runs under the store mutex and is built to be
// atomic in memory:
//
//  1. append phase — every record of the batch is appended to the log,
//     while the resulting location-map updates are collected in a staged
//     update set (an overlay over the live map). Nothing in the store's
//     in-memory state is touched. If any append fails, the staged set is
//     discarded and a tail mark is left behind (pendingRewind) so the next
//     append-capable operation physically truncates the orphaned records —
//     without that, crash recovery's replay would resurrect them once a
//     later commit succeeded.
//  2. merge phase — the staged updates are applied to the location map,
//     allocator, live-byte accounting, and chunk count, with an undo log.
//     The only fallible step here is a location-map descent that needs to
//     page in a map node; if it fails, the undo log restores the previous
//     state exactly (undo descents are infallible because the forward
//     mutation left the whole path cached and dirty, and dirty nodes are
//     never evicted).
//  3. seal — the commit record over the post-merge Merkle root is appended.
//     Failure here also rolls back the merge and marks the tail for rewind.
//     A durable commit's record joins the pending harden, paid off the
//     mutex by a round (groupcommit.go).
//
// The net effect is the §3.1 guarantee by construction: a commit either
// fully applies or leaves the in-memory store exactly as it was.

// ivGenBits is the width of the per-operation slot within one commit's IV
// sequence space: IV seed = generation<<ivGenBits | op index. Generations
// are reserved from Store.ivGen, a counter that never repeats across the
// life of the database — the superblock persists a reservation high-water
// mark that Open ratchets past (see Store.nextIVGen) — so no two
// encryptions under the same key, in this process or any earlier one, share
// a seed.
const ivGenBits = 20

// preparedOp carries the stage-1 output for one write/restore operation:
// the fully encoded log record and the ciphertext digest for the location
// map. Slots for non-write operations stay zero.
type preparedOp struct {
	rec  []byte
	hash []byte
}

// prepareBatch encrypts and digests every write payload of ops, using one
// goroutine per P (runtime.GOMAXPROCS), at most one per payload: a
// single-P process prepares inline on the committing goroutine. It performs
// no validation against store state — that happens under the mutex in
// stage 2.
func prepareBatch(suite sec.Suite, ops []batchOp, gen uint64) ([]preparedOp, error) {
	var writeIdx []int
	for i, op := range ops {
		if op.kind == opWrite || op.kind == opRestore {
			writeIdx = append(writeIdx, i)
		}
	}
	if len(writeIdx) == 0 {
		return nil, nil
	}
	prep := make([]preparedOp, len(ops))
	encryptOne := func(i int) error {
		op := ops[i]
		ciphertext, err := suite.Encrypt(op.data, gen<<ivGenBits|uint64(i))
		if err != nil {
			return fmt.Errorf("chunkstore: encrypting chunk %d: %w", op.cid, err)
		}
		prep[i] = preparedOp{
			rec:  encodeRecord(recWrite, writeRecordBody(op.cid, ciphertext)),
			hash: suite.Digest(nil, ciphertext),
		}
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), len(writeIdx))
	if workers <= 1 {
		for _, i := range writeIdx {
			if err := encryptOne(i); err != nil {
				return nil, err
			}
		}
		return prep, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stride partitioning spreads large and small payloads evenly.
			for j := w; j < len(writeIdx); j += workers {
				if err := encryptOne(writeIdx[j]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return prep, nil
}

// completePendingRewindLocked physically discards the log tail left by a failed
// commit. It runs at the start of every append-capable operation; until it
// succeeds, no new records may be appended (they would land after orphaned
// records that crash recovery must be able to truncate away).
func (s *Store) completePendingRewindLocked() error {
	if s.pendingRewind == nil {
		return nil
	}
	if err := s.segs.rewind(*s.pendingRewind); err != nil {
		return fmt.Errorf("chunkstore: discarding aborted commit tail: %w", err)
	}
	s.pendingRewind = nil
	return nil
}

// stagedOp is one collected update of the append phase, applied (or
// discarded wholesale) by the merge phase.
type stagedOp struct {
	kind int
	cid  ChunkID
	// e is the new location-map entry for write/restore operations.
	e entry
	// old is the pre-operation entry seen through the batch overlay for
	// deallocations; appended records whether a dealloc record was written.
	old      entry
	appended bool
}

// commitPreparedLocked is stage 2 of Commit: validate, append, merge, seal.
// Caller holds s.mu; prep is the stage-1 output aligned with b.ops.
func (s *Store) commitPreparedLocked(b *Batch, prep []preparedOp, durable bool) error {
	if err := s.completePendingRewindLocked(); err != nil {
		return err
	}
	// Validate before touching the log (against pre-batch allocator state,
	// matching the original commit semantics).
	for _, op := range b.ops {
		switch op.kind {
		case opWrite, opDealloc:
			if !s.alloc.isAllocated(op.cid) {
				return fmt.Errorf("%w: %d", ErrNotAllocated, op.cid)
			}
		case opRestore:
			if op.cid == 0 {
				return fmt.Errorf("%w: restore of chunk id 0", ErrUsage)
			}
		}
	}
	if len(b.ops) == 0 && !durable {
		return nil
	}

	mark := s.segs.mark()
	fail := func(err error) error {
		s.pendingRewind = &mark
		return err
	}

	// Append phase: write every record, stage every update, mutate nothing.
	staged := make([]stagedOp, 0, len(b.ops))
	overlay := make(map[ChunkID]entry, len(b.ops))
	overlayGet := func(cid ChunkID) (entry, error) {
		if e, ok := overlay[cid]; ok {
			return e, nil
		}
		return s.lm.get(cid)
	}
	appended := int64(0)
	for i, op := range b.ops {
		switch op.kind {
		case opWrite, opRestore:
			loc, err := s.segs.append(prep[i].rec, s.cfg.SegmentSize)
			if err != nil {
				return fail(err)
			}
			appended += int64(len(prep[i].rec))
			e := entry{loc: loc, hash: prep[i].hash}
			overlay[op.cid] = e
			staged = append(staged, stagedOp{kind: op.kind, cid: op.cid, e: e})
		case opDealloc:
			old, err := overlayGet(op.cid)
			if err != nil {
				return fail(err)
			}
			so := stagedOp{kind: opDealloc, cid: op.cid, old: old}
			if !old.isEmpty() {
				rec := encodeRecord(recDealloc, deallocRecordBody(op.cid))
				if _, err := s.segs.append(rec, s.cfg.SegmentSize); err != nil {
					return fail(err)
				}
				appended += int64(len(rec))
				so.appended = true
				overlay[op.cid] = entry{}
			}
			staged = append(staged, so)
		}
	}

	// Merge phase: apply the staged updates under an undo log.
	var undo []func()
	rollback := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	for _, so := range staged {
		switch so.kind {
		case opWrite, opRestore:
			if so.kind == opRestore {
				prevNext := s.alloc.nextID
				_, wasFree := s.alloc.freeSet[so.cid]
				s.alloc.noteWritten(so.cid)
				cid := so.cid
				undo = append(undo, func() {
					s.alloc.nextID = prevNext
					if wasFree {
						s.alloc.freeSet[cid] = struct{}{}
					}
				})
			}
			old, err := s.lm.set(so.cid, so.e)
			if err != nil {
				rollback()
				return fail(err)
			}
			cid, newLoc := so.cid, so.e.loc
			if old.isEmpty() {
				s.chunkCount++
				undo = append(undo, func() {
					s.lm.restoreEntry(cid, entry{})
					s.adjustLive(newLoc, -int64(newLoc.Len))
					s.chunkCount--
				})
			} else {
				s.adjustLive(old.loc, -int64(old.loc.Len))
				undo = append(undo, func() {
					s.lm.restoreEntry(cid, old)
					s.adjustLive(newLoc, -int64(newLoc.Len))
					s.adjustLive(old.loc, int64(old.loc.Len))
				})
			}
			s.adjustLive(so.e.loc, int64(so.e.loc.Len))
		case opDealloc:
			if so.appended {
				old, err := s.lm.clear(so.cid)
				if err != nil {
					rollback()
					return fail(err)
				}
				s.adjustLive(old.loc, -int64(old.loc.Len))
				s.chunkCount--
				cid := so.cid
				undo = append(undo, func() {
					s.lm.restoreEntry(cid, old)
					s.adjustLive(old.loc, int64(old.loc.Len))
					s.chunkCount++
				})
			}
			if _, wasFree := s.alloc.freeSet[so.cid]; !wasFree {
				s.alloc.release(so.cid)
				cid := so.cid
				undo = append(undo, func() {
					// release pushed cid onto the free list tail; LIFO undo
					// order guarantees it is still the tail here.
					delete(s.alloc.freeSet, cid)
					s.alloc.freeList = s.alloc.freeList[:len(s.alloc.freeList)-1]
				})
			}
		}
	}

	// Seal: commit record over the post-merge root.
	sealed, err := s.appendCommitRecordLocked(durable)
	if err != nil {
		rollback()
		return fail(err)
	}
	s.residualBytes += appended + sealed

	// Off-mutex reads that snapshotted the pre-commit map are told their
	// snapshot is stale before Commit returns: the epoch bump fails their
	// revalidation. A committed rewrite or deallocation also replaces the
	// chunk's stored bytes, so any quarantine on the old, damaged version no
	// longer applies.
	if len(b.ops) > 0 {
		s.locEpoch.Add(1)
	}
	for _, op := range b.ops {
		delete(s.quarantine, op.cid)
	}
	b.ops = nil
	return nil
}
