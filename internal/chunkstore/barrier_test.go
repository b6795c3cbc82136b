package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tdb/internal/platform"
)

// TestCheckpointIsTwoDurabilityBarriers pins the checkpoint's cost at two
// durability barriers, the log-tail harden and its superblock slot's sync,
// and its anchor as durable when Checkpoint returns: a crash right after it
// recovers from the new checkpoint, not the one before.
func TestCheckpointIsTwoDurabilityBarriers(t *testing.T) {
	env := newWBEnv(t)
	s, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// A durable baseline commit leaves the segments synced, so every
	// metered op below is attributable to the checkpoint itself.
	a := allocWrite(t, s, bytes.Repeat([]byte("base"), 128))

	// Dirty the location map so the checkpoint has real node writes to do.
	want := bytes.Repeat([]byte("next"), 128)
	b := s.NewBatch()
	b.Write(a, want)
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	before := env.meter.Stats().Snapshot()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	delta := env.meter.Stats().Snapshot().Sub(before)
	if delta.SyncOps != 2 {
		t.Fatalf("Checkpoint cost %d SyncOps, want exactly 2 (log-tail harden, superblock slot): %+v", delta.SyncOps, delta)
	}
	anchor := s.lastCkpt

	env.mem.Crash()
	s2, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("recovery after a crash right after the checkpoint: %v", err)
	}
	defer s2.Close()
	if s2.lastCkpt != anchor {
		t.Fatalf("recovered from the checkpoint at %+v, want the new one at %+v", s2.lastCkpt, anchor)
	}
	if got, err := s2.Read(a); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recovered Read = %.12q..., %v; want %.12q...", got, err, want)
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}

// TestCrashBetweenCheckpointHardenAndSlot: a checkpoint whose harden
// succeeds and whose superblock slot write fails leaves the previous anchor
// the durable one. A crash there recovers from it, replaying the residual
// log across the failed checkpoint's node, checkpoint and commit records.
func TestCrashBetweenCheckpointHardenAndSlot(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	env.cfg.DisableAutoClean, env.cfg.DisableAutoCheckpoint = true, true
	s := env.open(t)

	payload := bytes.Repeat([]byte("ckpt"), 128)
	a := allocWrite(t, s, payload)
	old := s.lastCkpt
	s.mu.Lock()
	start := position{seg: s.segs.tail.num, off: s.segs.tail.size}
	s.mu.Unlock()

	env.fs.SetFaultFilter(func(name string) bool { return name == superblockName })
	env.fs.SetTransientProb(0, 1, 1<<30)
	if err := s.Checkpoint(); !errors.Is(err, ErrIO) {
		t.Fatalf("Checkpoint with a failing superblock write = %v, want ErrIO", err)
	}
	s.mu.Lock()
	owed := s.hardenOwedLocked()
	var ckptRec Location
	_, err := s.scanLog(start, func(loc Location, typ byte, _ []byte) (bool, error) {
		if typ == recCheckpoint {
			ckptRec = loc
		}
		return true, nil
	})
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("scanLog: %v", err)
	}
	if owed {
		t.Fatal("test premise: the failed checkpoint did not harden its records")
	}
	if ckptRec.IsZero() {
		t.Fatal("test premise: the failed checkpoint appended no checkpoint record")
	}

	// Power loss: MemStore's Crash drops unsynced writes; the failed
	// checkpoint's records were synced, its slot never written.
	env.mem.Crash()
	env.fs.SetTransientProb(0, 0, 0)
	env.fs.SetTransientWrites(0, 0)
	s2 := env.open(t)
	defer s2.Close()
	if s2.lastCkpt != old {
		t.Fatalf("recovered from the checkpoint at %+v, want the previous anchor at %+v", s2.lastCkpt, old)
	}
	// Recovery truncates the log after the last durable commit it replays:
	// the failed checkpoint's record survives only if replay crossed it.
	if typ, _, err := s2.segs.readRecord(ckptRec); err != nil || typ != recCheckpoint {
		t.Fatalf("the failed checkpoint's record at %+v after recovery: type %d, %v", ckptRec, typ, err)
	}
	if s2.residualBytes == 0 {
		t.Fatal("recovery replayed no residual log")
	}
	wantRead(t, s2, a, string(payload))
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}

// TestWriteBehindOverflowFlushesRecordInOneWrite pins the one append path:
// every record, whatever its size, goes through the write-behind buffers,
// and an append never touches the device. A commit or maintenance step
// first flushes the buffers if they hold the cap or more: a step that finds
// them under it costs no device operation, and the one after a record took
// them to the cap flushes the buffered prefix and that record in exactly
// one WriteAt, with no sync and no truncate, and buffering resumes. A
// record of four times the cap passes through the same way, and the flush
// lets its oversized backing array go.
func TestWriteBehindOverflowFlushesRecordInOneWrite(t *testing.T) {
	mem := platform.NewMemStore()
	meter := platform.NewMeterStore(mem)
	ss := newSegmentSet(meter, RetryPolicy{})
	const segmentSize = 8 << 20 // every record below shares one segment

	// Settle the tail: one buffered record, flushed to the device so the
	// buffer is empty and every op below is a step's own.
	small := segRecord('s', 100)
	locSmall := ss.append(small, segmentSize)
	if err := ss.flushLocked(); err != nil {
		t.Fatalf("flushLocked: %v", err)
	}

	// step runs one step's buffer work — the flush over the cap, then the
	// append of rec — and returns rec's location and the step's device
	// cost.
	step := func(name string, rec []byte) (Location, platform.IOCounts) {
		t.Helper()
		before := meter.Stats().Snapshot()
		if err := ss.flushOverCapLocked(); err != nil {
			t.Fatalf("step %s: flushOverCapLocked: %v", name, err)
		}
		loc := ss.append(rec, segmentSize)
		return loc, meter.Stats().Snapshot().Sub(before)
	}
	wantNoIO := func(name string, delta platform.IOCounts) {
		t.Helper()
		if delta != (platform.IOCounts{}) {
			t.Fatalf("step %s touched the device: %+v", name, delta)
		}
	}
	// wantOneWrite requires delta to be exactly one WriteAt of n bytes.
	wantOneWrite := func(name string, delta platform.IOCounts, n int) {
		t.Helper()
		if delta.WriteOps != 1 || delta.BytesWritten != int64(n) || delta.SyncOps != 0 || delta.TruncateOps != 0 {
			t.Fatalf("step %s cost %+v, want exactly one WriteAt of %d bytes (prefix plus record) and nothing else", name, delta, n)
		}
	}

	// Under the cap: buffered, no device operation, also for the record
	// that takes the buffer to the cap.
	mid := segRecord('m', 80<<10)
	locMid, delta := step("mid", mid)
	wantNoIO("mid", delta)
	big := segRecord('L', 200<<10)
	locBig, delta := step("big", big)
	wantNoIO("big", delta)

	// The next step finds the cap reached: prefix and record in one
	// WriteAt, and buffering resumes.
	tail := segRecord('t', 200)
	locTail, delta := step("tail", tail)
	wantOneWrite("after the overflowing record", delta, len(mid)+len(big))

	// A record of four times the cap goes the same way, and its flush
	// does not keep the grown array.
	huge := segRecord('H', 4*writeBehindCap)
	locHuge, delta := step("huge", huge)
	wantNoIO("huge", delta)
	after := segRecord('a', 300)
	locAfter, delta := step("after", after)
	wantOneWrite("after the oversized record", delta, len(tail)+len(huge))
	if c := cap(ss.tail.buf); c > writeBehindCap {
		t.Fatalf("write-behind buffer kept a %d-byte array after flushing an oversized record, want at most %d", c, writeBehindCap)
	}

	// Everything reads back through the buffer-aware path, and again after
	// a flush and sync.
	check := func() {
		t.Helper()
		readSegRecord(t, ss, locSmall, small)
		readSegRecord(t, ss, locMid, mid)
		readSegRecord(t, ss, locBig, big)
		readSegRecord(t, ss, locTail, tail)
		readSegRecord(t, ss, locHuge, huge)
		readSegRecord(t, ss, locAfter, after)
	}
	check()
	if err := ss.syncDirty(); err != nil {
		t.Fatalf("syncDirty: %v", err)
	}
	check()
}

// TestCheckpointSuperblockFaultRetriesSameSlot fails a checkpoint's
// superblock slot on every retry, its write in one case and its sync in the
// other, after the checkpoint's harden succeeded. Checkpoint returns ErrIO
// and leaves the anchor, superSeq and the node segments it emptied as they
// were. The next Checkpoint writes the same slot, leaving the last durable
// anchor untouched, frees those node segments, and the store recovers
// every value from it.
func TestCheckpointSuperblockFaultRetriesSameSlot(t *testing.T) {
	for _, tc := range []struct {
		name, op string
		fail     func(fs *platform.FaultStore)
	}{
		{"write fails", "write", func(fs *platform.FaultStore) { fs.SetTransientProb(0, 1, 1<<30) }},
		{"sync fails", "sync", func(fs *platform.FaultStore) { fs.SetSyncFailures(true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t, "aes-gcm")
			env.cfg.Fanout = 4
			env.cfg.DisableAutoClean, env.cfg.DisableAutoCheckpoint = true, true
			s := env.open(t)
			want := map[ChunkID]string{}
			var cids []ChunkID
			for i := 0; i < 16; i++ {
				v := fmt.Sprintf("v%d", i)
				cids = append(cids, allocWrite(t, s, []byte(v)))
				want[cids[i]] = v
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			// Rewriting every chunk dirties every map node, so the next
			// checkpoint empties the node segments before it.
			for _, cid := range cids {
				want[cid] += "-again"
				writeChunk(t, s, cid, []byte(want[cid]))
			}
			s.mu.Lock()
			seq, anchor := s.superSeq, s.lastCkpt
			var nodeSegs []uint64
			for _, num := range s.segs.numbers() {
				if s.segs.segs[num].nodes {
					nodeSegs = append(nodeSegs, num)
				}
			}
			s.mu.Unlock()
			if len(nodeSegs) == 0 {
				t.Fatal("test premise: the store has no node segment")
			}
			durable := env.mem.Snapshot()[superblockName]

			env.fs.SetFaultFilter(func(name string) bool { return name == superblockName })
			tc.fail(env.fs)
			err := s.Checkpoint()
			var ioe *IOError
			if !errors.Is(err, ErrIO) || !errors.As(err, &ioe) || ioe.Op != tc.op || ioe.File != superblockName {
				t.Fatalf("Checkpoint with a failing superblock %s = %v, want ErrIO from the superblock %s", tc.op, err, tc.op)
			}
			s.mu.Lock()
			if s.superSeq != seq || s.lastCkpt != anchor {
				t.Errorf("failed checkpoint moved superSeq %d -> %d, lastCkpt %+v -> %+v", seq, s.superSeq, anchor, s.lastCkpt)
			}
			for _, num := range nodeSegs {
				if seg := s.segs.segs[num]; seg == nil {
					t.Errorf("failed checkpoint freed node segment %d", num)
				} else if seg.live != 0 {
					t.Errorf("test premise: the checkpoint left node segment %d %d bytes live", num, seg.live)
				}
			}
			s.mu.Unlock()
			if got := env.mem.Snapshot()[superblockName]; !bytes.Equal(got, durable) {
				t.Error("failed checkpoint changed the durable superblock")
			}

			env.fs.SetTransientProb(0, 0, 0)
			env.fs.SetTransientWrites(0, 0)
			env.fs.SetSyncFailures(false)
			env.fs.SetFaultFilter(nil)
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint after the faults cleared: %v", err)
			}
			s.mu.Lock()
			if s.superSeq != seq+1 {
				t.Errorf("superSeq %d after the retried checkpoint, want %d", s.superSeq, seq+1)
			}
			anchor = s.lastCkpt
			for _, num := range nodeSegs {
				if s.segs.segs[num] != nil {
					t.Errorf("node segment %d survived the retried checkpoint", num)
				}
			}
			s.mu.Unlock()
			got := env.mem.Snapshot()[superblockName]
			old := int64(seq%2) * superSlotSize
			if !bytes.Equal(got[old:old+superSlotSize], durable[old:old+superSlotSize]) {
				t.Errorf("the retried checkpoint overwrote the last durable anchor's slot at %d", old)
			}
			next := int64((seq+1)%2) * superSlotSize
			if sb, _, ok := decodeSuperSlot(got[next:next+superSlotSize], env.suite); !ok || sb.seq != seq+1 || sb.ckptLoc != anchor {
				t.Errorf("slot at %d holds seq %d, checkpoint %+v (valid %v); want seq %d, checkpoint %+v", next, sb.seq, sb.ckptLoc, ok, seq+1, anchor)
			}

			env.mem.Crash()
			s2 := env.open(t)
			defer s2.Close()
			if s2.lastCkpt != anchor {
				t.Errorf("recovered from the checkpoint at %+v, want %+v", s2.lastCkpt, anchor)
			}
			for cid, v := range want {
				wantRead(t, s2, cid, v)
			}
			if err := s2.Verify(); err != nil {
				t.Fatalf("Verify after recovery: %v", err)
			}
		})
	}
}
