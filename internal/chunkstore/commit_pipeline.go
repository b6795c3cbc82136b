package chunkstore

import (
	"fmt"

	"tdb/internal/sec"
)

// The two-stage commit pipeline.
//
// Stage 1 (prepareBatch) runs OUTSIDE the store mutex, on the committing
// goroutine: it seals every write payload, encrypting it and computing its
// Merkle leaf (in one pass under the default suite). Crypto dominates
// commit CPU cost under the paper's suites (§7.3), so keeping it off the
// serialized critical path lets concurrent committers prepare in parallel
// with each other while only the short stage 2 serializes. Stage 1 starts
// no goroutines of its own: on the ledger's batches (about nine 110 B
// payloads) a fan-out cost more to start and join than the crypto it
// spread (EXPERIMENTS.md).
//
// Stage 2 (commitPreparedLocked) runs under the store mutex and puts every
// fallible step before its first mutation:
//
//  1. validation against the allocator;
//  2. a flush of the write-behind buffers if they hold writeBehindCap bytes
//     or more, which bounds them to the cap plus one batch;
//  3. a fault-in that leaves the stored map path of every chunk the batch
//     touches resident, private and dirty (locMap.pin), without changing
//     the map.
//
// A failure in any of them applies nothing. Then one pass in batch order
// appends each record to the buffers, updates the location map, allocator,
// live-byte accounting and chunk count, and appends the commit record over
// the new Merkle root. None of that can fail: an append touches no device
// (segmentSet.append), and the map updates walk pinned paths, which dirty
// nodes keep resident (setPinned). A durable commit's record joins the
// pending harden, paid off the mutex by a round (groupcommit.go).
//
// The net effect is the §3.1 guarantee by construction: a commit either
// fully applies or leaves the store exactly as it was, in memory and on
// disk.

// ivGenBits is the width of the per-operation slot within one commit's IV
// sequence space: IV seed = generation<<ivGenBits | op index. Generations
// are reserved from Store.ivGen, a counter that never repeats across the
// life of the database — the superblock persists a reservation high-water
// mark that Open ratchets past (see Store.nextIVGen) — so no two
// encryptions under the same key, in this process or any earlier one, share
// a seed.
const ivGenBits = 20

// preparedOp carries the stage-1 output for one write/restore operation:
// the fully encoded log record and the record's Merkle leaf for the
// location map. Slots for non-write operations stay zero.
type preparedOp struct {
	rec  []byte
	hash []byte
}

// prepareBatch seals every write payload of ops on the calling goroutine.
// It performs no validation against store state — that happens under the
// mutex in stage 2.
func prepareBatch(suite sec.Suite, ops []batchOp, gen uint64) ([]preparedOp, error) {
	prep := make([]preparedOp, len(ops))
	for i, op := range ops {
		if op.kind != opWrite && op.kind != opRestore {
			continue
		}
		ciphertext, leaf, err := suite.Seal(op.data, gen<<ivGenBits|uint64(i))
		if err != nil {
			return nil, fmt.Errorf("chunkstore: encrypting chunk %d: %w", op.cid, err)
		}
		prep[i] = preparedOp{rec: encodeRecord(recWrite, writeRecordBody(op.cid, ciphertext)), hash: leaf}
	}
	return prep, nil
}

// commitPreparedLocked is stage 2 of Commit: validate, flush over the cap,
// fault in, then apply. Caller holds s.mu; prep is the stage-1 output
// aligned with b.ops.
func (s *Store) commitPreparedLocked(b *Batch, prep []preparedOp, durable bool) error {
	// Validate against pre-batch allocator state, matching the original
	// commit semantics.
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
	if err := s.segs.flushOverCapLocked(); err != nil {
		return err
	}
	for _, op := range b.ops {
		if err := s.lm.pin(op.cid); err != nil {
			return err
		}
	}

	appended := int64(0)
	for i, op := range b.ops {
		switch op.kind {
		case opWrite, opRestore:
			loc := s.appendLocked(prep[i].rec)
			appended += int64(loc.Len)
			if op.kind == opRestore {
				s.alloc.noteWritten(op.cid)
			}
			if old := s.lm.setPinned(op.cid, entry{loc: loc, hash: prep[i].hash}); old.isEmpty() {
				s.chunkCount++
			} else {
				s.adjustLive(old.loc, -int64(old.loc.Len))
			}
			s.adjustLive(loc, int64(loc.Len))
		case opDealloc:
			// The pinned path is resident, so the cached walk sees the
			// entry, as earlier operations of the batch left it.
			old, resident := s.lm.getCached(op.cid)
			if !resident {
				panic(fmt.Sprintf("chunkstore: pinned path of chunk %d not resident", op.cid))
			}
			if !old.isEmpty() {
				rec := encodeRecord(recDealloc, deallocRecordBody(op.cid))
				s.appendLocked(rec)
				appended += int64(len(rec))
				s.lm.setPinned(op.cid, entry{})
				s.adjustLive(old.loc, -int64(old.loc.Len))
				s.chunkCount--
			}
			if _, free := s.alloc.freeSet[op.cid]; !free {
				s.alloc.release(op.cid)
			}
		}
	}
	s.residualBytes += appended + s.appendCommitRecordLocked(durable)

	// A committed rewrite or deallocation replaces the chunk's stored bytes,
	// so any quarantine on the old, damaged version no longer applies.
	for _, op := range b.ops {
		delete(s.quarantine, op.cid)
	}
	b.ops = nil
	return nil
}
