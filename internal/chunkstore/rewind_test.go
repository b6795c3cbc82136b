package chunkstore

import (
	"bytes"
	"errors"
	"testing"
)

// failCommitWithOrphans drives the batch against an injected storage crash
// until a Commit failure leaves orphaned records at the log tail
// (pendingRewind set). The batch must hold a write larger than a segment, so
// stage 2 does I/O of its own (sealing and creating segments) for the crash
// to land in. The batch's operations survive the failures, so the caller can
// retry it once storage recovers.
func failCommitWithOrphans(t *testing.T, env *testEnv, s *Store, b *Batch) {
	t.Helper()
	for budget := int64(1); ; budget++ {
		env.fs.SetWriteBudget(budget)
		err := s.Commit(b, true)
		env.fs.SetWriteBudget(-1)
		if err == nil || errors.Is(err, ErrNotDurable) {
			t.Fatalf("commit applied (%v) before a failure left an orphaned tail", err)
		}
		if s.pendingRewind != nil {
			return
		}
		if budget > 10000 {
			t.Fatal("fault sweep runaway: no failure produced an orphaned tail")
		}
	}
}

// TestCheckpointAfterFailedCommit: a failed commit leaves orphaned records
// marked for rewind; a Checkpoint issued before the next commit must discard
// them first. Without that, the checkpoint's durable records land beyond the
// rewind mark and the next successful commit physically truncates them —
// destroying the checkpoint the superblock points at — while the orphaned
// writes sit ahead of a durable commit record where crash recovery would
// replay the aborted batch.
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
			failCommitWithOrphans(t, env, s, batch)

			// The checkpoint must rewind the orphaned tail before appending.
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint after failed commit: %v", err)
			}
			if s.pendingRewind != nil {
				t.Fatal("Checkpoint left the orphaned tail pending rewind")
			}

			// The retried batch commits after the checkpoint; with the bug its
			// rewind would truncate the checkpoint's durable records here.
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
// failed commit must discard the orphaned tail before relocating records or
// checkpointing.
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
	failCommitWithOrphans(t, env, s, batch)

	if err := s.Clean(); err != nil {
		t.Fatalf("Clean after failed commit: %v", err)
	}
	if s.pendingRewind != nil {
		t.Fatal("Clean left the orphaned tail pending rewind")
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

// TestCloseAfterFailedCommit: Close must not let its shutdown checkpoint
// append beyond an orphaned tail either, and the reopened store must carry
// the pre-batch state.
func TestCloseAfterFailedCommit(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.DisableAutoClean = true
	env.cfg.DisableAutoCheckpoint = true
	s := env.open(t)

	oldA := []byte("before")
	a := allocWrite(t, s, oldA)
	batch := s.NewBatch()
	batch.Write(a, bytes.Repeat([]byte("x"), env.cfg.SegmentSize+600))
	failCommitWithOrphans(t, env, s, batch)

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
