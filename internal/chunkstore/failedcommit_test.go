package chunkstore

import (
	"bytes"
	"errors"
	"testing"
)

// failCommit fails a durable commit of b in stage 2, where it applies
// nothing: it fills the write-behind buffers (fillWriteBehind), so the
// commit starts with their flush, and crashes the device at its first
// operation. The batch's operations survive the failure, so the caller can
// retry it once storage recovers.
func failCommit(t *testing.T, env *testEnv, s *Store, b *Batch) {
	t.Helper()
	filler, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	fillWriteBehind(t, s, filler)
	before := snapshotState(s)
	env.fs.SetWriteBudget(0)
	err = s.Commit(b, true)
	env.fs.SetWriteBudget(-1)
	if err == nil || errors.Is(err, ErrNotDurable) || errors.Is(err, ErrMaintenance) {
		t.Fatalf("Commit from full buffers on a crashed device = %v, want a stage-2 failure", err)
	}
	if got := snapshotState(s); got != before {
		t.Fatalf("failed commit changed the store: %+v != %+v", got, before)
	}
}

// TestCheckpointAfterFailedCommit: a checkpoint after a failed commit, and
// the retried commit after it, leave a log that recovers to the retried
// commit's state from the intact checkpoint. A failed commit that left
// records behind would break this either way: the checkpoint's durable
// records would follow them, so recovery would replay the aborted batch, or
// removing them would take the checkpoint the superblock points at.
func TestCheckpointAfterFailedCommit(t *testing.T) {
	for _, suiteName := range []string{"3des-sha1", "null"} {
		t.Run(suiteName, func(t *testing.T) {
			env := newTestEnv(t, suiteName)
			env.cfg.DisableAutoClean = true
			env.cfg.DisableAutoCheckpoint = true
			s := env.open(t)

			oldA := bytes.Repeat([]byte("a"), 512)
			a := allocWrite(t, s, oldA)

			newA := bytes.Repeat([]byte("A"), env.cfg.SegmentSize+700)
			batch := s.NewBatch()
			batch.Write(a, newA)
			failCommit(t, env, s, batch)
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint after failed commit: %v", err)
			}
			if err := s.Commit(batch, true); err != nil {
				t.Fatalf("Commit retry after checkpoint: %v", err)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}

			// Crash recovery must land on the retried commit's state, starting
			// from the (intact) checkpoint.
			env.mem.Crash()
			s2 := env.open(t)
			defer s2.Close()
			if err := s2.Verify(); err != nil {
				t.Fatalf("Verify after crash recovery: %v", err)
			}
			if got, err := s2.Read(a); err != nil || !bytes.Equal(got, newA) {
				t.Fatalf("recovered Read(a) = %q, %v; want retried value", got, err)
			}
		})
	}
}

// TestCleanAfterFailedCommit is the cleaner-path variant: Clean after a
// failed commit relocates records and checkpoints behind nothing the failed
// commit left.
func TestCleanAfterFailedCommit(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	env.cfg.DisableAutoClean = true
	env.cfg.DisableAutoCheckpoint = true
	env.cfg.SegmentSize = 4 << 10
	s := env.open(t)

	// Create garbage so the aggressive clean has real evacuation work.
	var ids []ChunkID
	for i := 0; i < 8; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 900)))
	}
	for round := 0; round < 3; round++ {
		for i, cid := range ids {
			writeChunk(t, s, cid, bytes.Repeat([]byte{byte(round*10 + i)}, 900))
		}
	}
	want := make(map[ChunkID][]byte)
	for i, cid := range ids {
		want[cid] = bytes.Repeat([]byte{byte(20 + i)}, 900)
	}

	fresh := bytes.Repeat([]byte("z"), env.cfg.SegmentSize+700)
	batch := s.NewBatch()
	batch.Write(ids[0], fresh)
	failCommit(t, env, s, batch)
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean after failed commit: %v", err)
	}

	if err := s.Commit(batch, true); err != nil {
		t.Fatalf("Commit retry after clean: %v", err)
	}
	want[ids[0]] = fresh
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	env.mem.Crash()
	s2 := env.open(t)
	defer s2.Close()
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after crash recovery: %v", err)
	}
	for cid, data := range want {
		got, err := s2.Read(cid)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("recovered Read(%d) = %v, %v; want %d bytes of %q", cid, len(got), err, len(data), data[0])
		}
	}
}

// TestCloseAfterFailedCommit: Close after a failed commit hardens and
// checkpoints only what applied, so the reopened store carries the
// pre-batch state.
func TestCloseAfterFailedCommit(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.DisableAutoClean = true
	env.cfg.DisableAutoCheckpoint = true
	s := env.open(t)

	oldA := []byte("before")
	a := allocWrite(t, s, oldA)
	batch := s.NewBatch()
	batch.Write(a, bytes.Repeat([]byte("x"), env.cfg.SegmentSize+600))
	failCommit(t, env, s, batch)

	if err := s.Close(); err != nil {
		t.Fatalf("Close after failed commit: %v", err)
	}
	s2 := env.open(t)
	defer s2.Close()
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
	got, err := s2.Read(a)
	if err != nil || !bytes.Equal(got, oldA) {
		t.Fatalf("reopened Read(a) = %q, %v; want pre-batch value %q", got, err, oldA)
	}
}
