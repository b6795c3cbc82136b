package chunkstore

import (
	"bytes"
	"testing"

	"tdb/internal/platform"
)

// TestCheckpointIsOneDurabilityBarrier pins the checkpoint's cost down to a
// single durability barrier: the log-tail harden (one fsync). The superblock
// slot is written but its fsync is deferred into the next harden barrier, so
// the meter must see exactly one SyncOp for the whole Checkpoint call —
// before the folding it saw two (log sync + superblock sync).
func TestCheckpointIsOneDurabilityBarrier(t *testing.T) {
	env := newWBEnv(t)
	s, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// A durable baseline commit: its harden leaves the segments synced and
	// pays any superblock fsync still deferred from format, so every metered
	// op below is attributable to the checkpoint itself.
	a := allocWrite(t, s, bytes.Repeat([]byte("base"), 128))
	if s.superDirty {
		t.Fatalf("superblock still dirty after a hardened durable commit")
	}

	// Dirty the location map so the checkpoint has real node writes to do.
	b := s.NewBatch()
	b.Write(a, bytes.Repeat([]byte("next"), 128))
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	before := env.meter.Stats().Snapshot()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	delta := env.meter.Stats().Snapshot().Sub(before)
	if delta.SyncOps != 1 {
		t.Fatalf("Checkpoint cost %d SyncOps, want exactly 1 (log-tail harden only): %+v", delta.SyncOps, delta)
	}
	if !s.superDirty {
		t.Fatalf("checkpoint did not defer the superblock fsync")
	}

	// The next harden barrier pays the deferred superblock fsync; no
	// standalone superblock barrier ever runs.
	c := s.NewBatch()
	c.Write(a, bytes.Repeat([]byte("more"), 128))
	if err := s.Commit(c, true); err != nil {
		t.Fatalf("durable Commit after checkpoint: %v", err)
	}
	if s.superDirty {
		t.Fatalf("harden barrier did not pay the deferred superblock fsync")
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCrashBeforeDeferredSuperblockSync proves the deferred anchor is safe:
// losing power after a checkpoint but before its superblock slot is fsynced
// recovers cleanly from the previous anchor by replaying the residual log
// across the checkpoint's own records.
func TestCrashBeforeDeferredSuperblockSync(t *testing.T) {
	env := newWBEnv(t)
	s, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	payload := bytes.Repeat([]byte("ckpt"), 128)
	a := allocWrite(t, s, payload)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if !s.superDirty {
		t.Fatalf("checkpoint did not defer the superblock fsync")
	}

	// Power loss with the new anchor written but not durable. MemStore's
	// Crash drops unsynced writes, so recovery sees the OLD superblock slot
	// and must replay the residual log behind it — including the new
	// checkpoint's node, checkpoint, and commit records.
	env.mem.Crash()
	s2, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("recovery after crash with stale anchor: %v", err)
	}
	defer s2.Close()
	if got, err := s2.Read(a); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("recovered Read = %.12q..., %v; want checkpointed payload", got, err)
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}

// TestLargeAppendBypassesWriteBehindBuffer pins the bulk-record fast path:
// a record that would immediately force a buffer flush is written through
// directly — exactly one WriteAt for exactly the record's bytes, no
// staging memcpy through the buffer, no sync — while small records keep
// buffering at zero device cost.
func TestLargeAppendBypassesWriteBehindBuffer(t *testing.T) {
	mem := platform.NewMemStore()
	meter := platform.NewMeterStore(mem)
	ss := newSegmentSet(meter, RetryPolicy{})

	// Settle the tail: one buffered record, flushed to the device so the
	// buffer is empty and every op below is the bulk append's own.
	small := segRecord('s', 100)
	locSmall, err := ss.append(small, 1<<20)
	if err != nil {
		t.Fatalf("append(small): %v", err)
	}
	if err := ss.flushLocked(); err != nil {
		t.Fatalf("flushLocked: %v", err)
	}

	// Below the write-through threshold (len*2 < cap): still buffered.
	mid := segRecord('m', 80<<10)
	before := meter.Stats().Snapshot()
	locMid, err := ss.append(mid, 1<<20)
	if err != nil {
		t.Fatalf("append(mid): %v", err)
	}
	if delta := meter.Stats().Snapshot().Sub(before); delta.WriteOps != 0 {
		t.Fatalf("sub-threshold record touched the device: %+v", delta)
	}

	// At the threshold (len*2 >= cap): the buffered prefix flushes (one
	// write) and the record itself writes through (one write) — the record
	// bytes must hit the device exactly once, never staged into the buffer.
	big := segRecord('L', 160<<10)
	before = meter.Stats().Snapshot()
	locBig, err := ss.append(big, 1<<20)
	if err != nil {
		t.Fatalf("append(big): %v", err)
	}
	delta := meter.Stats().Snapshot().Sub(before)
	if delta.WriteOps != 2 {
		t.Fatalf("bulk append cost %d WriteOps, want 2 (prefix flush + direct write): %+v", delta.WriteOps, delta)
	}
	if want := int64(len(mid) + len(big)); delta.BytesWritten != want {
		t.Fatalf("bulk append wrote %d bytes, want %d (no rewrite churn): %+v", delta.BytesWritten, want, delta)
	}
	if delta.SyncOps != 0 || delta.TruncateOps != 0 {
		t.Fatalf("bulk append cost unexpected sync/truncate ops: %+v", delta)
	}

	// With an empty buffer the direct write is the ONLY write.
	big2 := segRecord('M', 132<<10)
	before = meter.Stats().Snapshot()
	locBig2, err := ss.append(big2, 1<<20)
	if err != nil {
		t.Fatalf("append(big2): %v", err)
	}
	delta = meter.Stats().Snapshot().Sub(before)
	if delta.WriteOps != 1 || delta.BytesWritten != int64(len(big2)) {
		t.Fatalf("bulk append with clean buffer cost %+v, want exactly one WriteAt of %d bytes", delta, len(big2))
	}

	// Buffering resumes seamlessly after the write-through.
	tail := segRecord('t', 200)
	before = meter.Stats().Snapshot()
	locTail, err := ss.append(tail, 1<<20)
	if err != nil {
		t.Fatalf("append(tail): %v", err)
	}
	if delta := meter.Stats().Snapshot().Sub(before); delta.WriteOps != 0 {
		t.Fatalf("post-bypass small record touched the device: %+v", delta)
	}

	// Everything reads back through the buffer-aware path.
	readSegRecord(t, ss, locSmall, small)
	readSegRecord(t, ss, locMid, mid)
	readSegRecord(t, ss, locBig, big)
	readSegRecord(t, ss, locBig2, big2)
	readSegRecord(t, ss, locTail, tail)

	// And survives a flush+sync cycle intact.
	if err := ss.syncDirty(); err != nil {
		t.Fatalf("syncDirty: %v", err)
	}
	readSegRecord(t, ss, locBig, big)
	readSegRecord(t, ss, locTail, tail)
}
