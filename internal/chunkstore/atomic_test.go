package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// storeSnapshot captures the externally observable in-memory state the
// atomicity tests compare across a failed commit. The segment count is not
// part of it: segments a failed stage 2 created stay behind, referenced by
// nothing, until the next append-capable operation rewinds them.
type storeSnapshot struct {
	chunks    int64
	commitSeq uint64
	liveBytes int64
}

func snapshotState(s *Store) storeSnapshot {
	st := s.Stats()
	return storeSnapshot{
		chunks:    st.Chunks,
		commitSeq: st.CommitSeq,
		liveBytes: st.LiveBytes,
	}
}

// TestCommitAtomicOnAppendFault sweeps an injected storage crash across
// every stage-2 write boundary of a mixed batch (overwrite + deallocate +
// first write, each write larger than a segment so stage 2 seals and creates
// segments) and verifies that a Commit failing there leaves the in-memory
// store exactly as it was: location map contents, allocator state, live-byte
// accounting, chunk count, and commit sequence. Once the crash point moves
// past stage 2 the very same batch applies — first with ErrNotDurable (the
// crash lands in the harden), which the next durable commit hardens — and
// the resulting database must survive a crash-and-reopen with the orphaned
// records of all the failed attempts discarded.
func TestCommitAtomicOnAppendFault(t *testing.T) {
	for _, suiteName := range []string{"3des-sha1", "null"} {
		t.Run(suiteName, func(t *testing.T) {
			env := newTestEnv(t, suiteName)
			env.cfg.DisableAutoClean = true
			env.cfg.DisableAutoCheckpoint = true
			s := env.open(t)

			oldA := bytes.Repeat([]byte("a"), 512)
			oldB := bytes.Repeat([]byte("b"), 512)
			a := allocWrite(t, s, oldA)
			bID := allocWrite(t, s, oldB)
			c, err := s.AllocateChunkID()
			if err != nil {
				t.Fatalf("AllocateChunkID: %v", err)
			}

			newA := bytes.Repeat([]byte("A"), env.cfg.SegmentSize+700)
			newC := bytes.Repeat([]byte("C"), env.cfg.SegmentSize+300)
			batch := s.NewBatch()
			batch.Write(a, newA)
			batch.Deallocate(bID)
			batch.Write(c, newC)

			before := snapshotState(s)
			failures := 0
			budget := int64(1)
			for ; ; budget++ {
				env.fs.SetWriteBudget(budget)
				err := s.Commit(batch, true)
				if err == nil {
					break
				}
				if errors.Is(err, ErrMaintenance) {
					t.Fatalf("maintenance error with maintenance disabled: %v", err)
				}
				if errors.Is(err, ErrNotDurable) {
					// Stage 2 got through; the crash landed in the harden.
					// The batch is applied — harden it once storage is back.
					env.fs.SetWriteBudget(-1)
					if err := s.Commit(s.NewBatch(), true); err != nil {
						t.Fatalf("budget %d: hardening commit: %v", budget, err)
					}
					break
				}
				failures++
				if failures > 10000 {
					t.Fatal("commit never succeeded; fault sweep runaway")
				}
				// Storage is down; let it recover and audit the in-memory
				// state the failed commit must not have touched.
				env.fs.SetWriteBudget(-1)
				if got := snapshotState(s); got != before {
					t.Fatalf("budget %d: state changed across failed commit: %+v != %+v", budget, got, before)
				}
				// Reads must see the pre-batch contents.
				for _, probe := range []struct {
					cid  ChunkID
					want []byte
				}{{a, oldA}, {bID, oldB}} {
					got, err := s.Read(probe.cid)
					if err != nil {
						t.Fatalf("budget %d: Read(%d) after failed commit: %v", budget, probe.cid, err)
					}
					if !bytes.Equal(got, probe.want) {
						t.Fatalf("budget %d: Read(%d) = %q, want pre-batch value", budget, probe.cid, got)
					}
				}
				if _, err := s.Read(c); !errors.Is(err, ErrNotWritten) {
					t.Fatalf("budget %d: Read(unwritten) after failed commit: %v, want ErrNotWritten", budget, err)
				}
			}
			if failures < 4 {
				t.Fatalf("fault sweep injected %d stage-2 failures, want one per segment seal and create", failures)
			}

			// The retried batch committed; verify the final state.
			if gotA, err := s.Read(a); err != nil || !bytes.Equal(gotA, newA) {
				t.Fatalf("Read(a) after retry: %q, %v", gotA, err)
			}
			if gotC, err := s.Read(c); err != nil || !bytes.Equal(gotC, newC) {
				t.Fatalf("Read(c) after retry: %q, %v", gotC, err)
			}
			if _, err := s.Read(bID); !errors.Is(err, ErrNotAllocated) {
				t.Fatalf("Read(deallocated) after retry: %v, want ErrNotAllocated", err)
			}
			if st := s.Stats(); st.Chunks != 2 {
				t.Fatalf("chunk count after retry: %d, want 2", st.Chunks)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("Verify after retry: %v", err)
			}

			// Crash and reopen: the orphaned records of the failed attempts
			// were physically rewound, so recovery must land on exactly the
			// retried commit's state.
			env.mem.Crash()
			s2 := env.open(t)
			defer s2.Close()
			if err := s2.Verify(); err != nil {
				t.Fatalf("Verify after crash recovery: %v", err)
			}
			if gotA, err := s2.Read(a); err != nil || !bytes.Equal(gotA, newA) {
				t.Fatalf("recovered Read(a): %q, %v", gotA, err)
			}
			if gotC, err := s2.Read(c); err != nil || !bytes.Equal(gotC, newC) {
				t.Fatalf("recovered Read(c): %q, %v", gotC, err)
			}
			if _, err := s2.Read(bID); !errors.Is(err, ErrNotAllocated) {
				t.Fatalf("recovered Read(deallocated): %v, want ErrNotAllocated", err)
			}
		})
	}
}

// TestCommitAtomicFirstWriteRollback covers rollback of a batch whose only
// effect would be brand-new chunks (chunkCount increment path) and checks
// the freshly allocated id remains allocated-but-unwritten, so Release still
// accepts it after the failure.
func TestCommitAtomicFirstWriteRollback(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.DisableAutoClean = true
	env.cfg.DisableAutoCheckpoint = true
	s := env.open(t)
	defer s.Close()

	cid, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	batch := s.NewBatch()
	// Larger than a segment, so stage 2 itself must create one.
	batch.Write(cid, bytes.Repeat([]byte("p"), env.cfg.SegmentSize+1))

	env.fs.SetWriteBudget(1)
	if err := s.Commit(batch, true); err == nil || errors.Is(err, ErrNotDurable) {
		t.Fatalf("Commit with 1-write budget: %v, want a stage-2 failure", err)
	}
	env.fs.SetWriteBudget(-1)

	if st := s.Stats(); st.Chunks != 0 {
		t.Fatalf("chunk count after failed first write: %d, want 0", st.Chunks)
	}
	// Still allocated, still unwritten: Release must accept it.
	if err := s.Release(cid); err != nil {
		t.Fatalf("Release after failed commit: %v", err)
	}
}

// TestBatchTooLarge checks the IV-space guard: batches beyond MaxBatchOps
// are rejected up front with ErrBatchTooLarge, while a batch of exactly
// MaxBatchOps passes the gate (and fails later, on ordinary validation).
func TestBatchTooLarge(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()

	over := s.NewBatch()
	for i := 0; i < MaxBatchOps+1; i++ {
		over.Deallocate(ChunkID(1))
	}
	if err := s.Commit(over, false); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("Commit(%d ops): %v, want ErrBatchTooLarge", MaxBatchOps+1, err)
	}

	// Exactly at the bound: the size gate admits it, and the commit fails
	// on validation instead (the id was never allocated), proving the
	// boundary sits between 2^20 and 2^20+1.
	atLimit := s.NewBatch()
	for i := 0; i < MaxBatchOps; i++ {
		atLimit.Deallocate(ChunkID(1))
	}
	err := s.Commit(atLimit, false)
	if errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("Commit(%d ops) rejected by size gate", MaxBatchOps)
	}
	if !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("Commit(%d ops): %v, want ErrNotAllocated", MaxBatchOps, err)
	}
}

// TestMaintenanceErrorDistinguished drives commits whose post-commit
// checkpoint runs into an injected crash and checks the three outcome
// classes of the commit contract are distinguishable: an error matching
// ErrMaintenance means the commit itself is durable (it must survive a
// crash), ErrNotDurable means it applied and is visible but a crash may lose
// it, and any other error means full rollback.
func TestMaintenanceErrorDistinguished(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	env.cfg.DisableAutoClean = true
	env.cfg.CheckpointBytes = 1 // every commit triggers a checkpoint
	s := env.open(t)

	cid := allocWrite(t, s, []byte("v0"))
	// visible is what reads must return; durable is the last value whose
	// commit was acknowledged durable (nil or ErrMaintenance — either also
	// hardens every earlier ErrNotDurable commit); maySurvive holds the
	// ErrNotDurable values applied since, which a crash may or may not keep.
	visible, durable := []byte("v0"), []byte("v0")
	var maySurvive [][]byte

	var sawMaintenance, sawNotDurable, sawRollback bool
	for budget := int64(1); budget < 10000 && !(sawMaintenance && sawNotDurable && sawRollback); budget++ {
		if len(maySurvive) > 0 {
			// Sweep every budget from a hardened store. A failed harden can
			// leave hardenDepth sealed stamps owed, and the next harden pays
			// them with one sync more before it seals, which moves the
			// commit's write boundaries: unsettled, the sweep steps from a
			// failed harden straight to commits that complete, past the
			// budget that fails only the checkpoint's superblock write.
			// TestCrashOwedRoundsHardenInOneCommit covers the owing state.
			settle := []byte(fmt.Sprintf("settle-%04d", budget))
			writeChunk(t, s, cid, settle)
			visible, durable, maySurvive = settle, settle, nil
		}
		// Larger than a segment, so stage 2 does I/O of its own and low
		// budgets crash it before anything is applied.
		next := bytes.Repeat([]byte(fmt.Sprintf("value-%04d;", budget)), env.cfg.SegmentSize/11+1)
		batch := s.NewBatch()
		batch.Write(cid, next)
		env.fs.SetWriteBudget(budget)
		err := s.Commit(batch, true)
		env.fs.SetWriteBudget(-1)
		switch {
		case err == nil, errors.Is(err, ErrMaintenance):
			// The commit applied durably; with ErrMaintenance only the
			// checkpoint after it failed.
			sawMaintenance = sawMaintenance || err != nil
			visible, durable, maySurvive = next, next, nil
		case errors.Is(err, ErrNotDurable):
			sawNotDurable = true
			visible = next
			maySurvive = append(maySurvive, next)
		default:
			sawRollback = true
		}
		got, err := s.Read(cid)
		if err != nil {
			t.Fatalf("budget %d: Read: %v", budget, err)
		}
		if !bytes.Equal(got, visible) {
			t.Fatalf("budget %d: Read = %.12q, want %.12q", budget, got, visible)
		}
	}
	if !sawMaintenance || !sawNotDurable || !sawRollback {
		t.Fatalf("fault sweep outcomes: maintenance=%v notDurable=%v rollback=%v, want all three",
			sawMaintenance, sawNotDurable, sawRollback)
	}

	// Crash and reopen: the store must recover to the last acknowledged
	// durable value — which includes every ErrMaintenance commit — or to one
	// of the unacknowledged values applied after it.
	env.mem.Crash()
	s2 := env.open(t)
	defer s2.Close()
	got, err := s2.Read(cid)
	if err != nil {
		t.Fatalf("recovered Read: %v", err)
	}
	ok := bytes.Equal(got, durable)
	for _, v := range maySurvive {
		ok = ok || bytes.Equal(got, v)
	}
	if !ok {
		t.Fatalf("recovered Read = %.12q, want durable %.12q or one of %d unacknowledged later values",
			got, durable, len(maySurvive))
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}

// oweRounds sweeps write budgets over durable commits whose post-commit
// checkpoint writes too, without hardening in between, until failed hardens
// leave hardenDepth sealed stamps awaiting the counter. It returns the
// chunk, its last acknowledged durable value and the values applied since
// (ErrNotDurable), which a crash may or may not keep.
func oweRounds(t *testing.T) (env *testEnv, s *Store, cid ChunkID, durable []byte, maySurvive [][]byte) {
	t.Helper()
	env = newTestEnv(t, "3des-sha1")
	env.cfg.DisableAutoClean = true
	env.cfg.CheckpointBytes = 1
	s = env.open(t)
	cid = allocWrite(t, s, []byte("v0"))
	durable = []byte("v0")
	for budget := int64(1); budget < 100; budget++ {
		next := bytes.Repeat([]byte(fmt.Sprintf("value-%04d;", budget)), env.cfg.SegmentSize/11+1)
		b := s.NewBatch()
		b.Write(cid, next)
		env.fs.SetWriteBudget(budget)
		err := s.Commit(b, true)
		env.fs.SetWriteBudget(-1)
		switch {
		case err == nil, errors.Is(err, ErrMaintenance):
			durable, maySurvive = next, nil
		case errors.Is(err, ErrNotDurable):
			maySurvive = append(maySurvive, next)
		}
		if s.sealedCtr == s.counterVal.Load()+hardenDepth && len(maySurvive) > 1 {
			return env, s, cid, durable, maySurvive
		}
	}
	t.Fatal("test premise: the sweep never left hardenDepth sealed stamps owed")
	return
}

// TestCrashOwedRoundsHardenInOneCommit: failed hardens that leave
// hardenDepth sealed stamps awaiting the counter, with several commits
// applied but unacknowledged, are a state recovery and the next commit both
// handle. A crash in it recovers the last durable value or one of the
// unacknowledged ones. One commit with an unlimited budget hardens every
// stamp owed, and its device operations are exactly a hardened store's plus
// the owing state's leftovers, each counted before the commit: failed
// hardens do not make later commits need ever more writes.
func TestCrashOwedRoundsHardenInOneCommit(t *testing.T) {
	for _, lose := range []bool{true, false} {
		t.Run(fmt.Sprintf("crash while owing, unsynced writes lost %v", lose), func(t *testing.T) {
			crashWhileOwing(t, lose)
		})
	}
	t.Run("one commit hardens", func(t *testing.T) {
		env, s, cid, _, _ := oweRounds(t)
		const unlimited = 1 << 30
		// commit returns the commit's device operations and how many
		// segments it freed.
		commit := func(v []byte) (ops int64, freed int) {
			s.mu.RLock()
			before := s.segs.numbers()
			s.mu.RUnlock()
			b := s.NewBatch()
			b.Write(cid, v)
			env.fs.SetWriteBudget(unlimited)
			defer env.fs.SetWriteBudget(-1)
			if err := s.Commit(b, true); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			if ctr := s.counterVal.Load(); s.sealedCtr != ctr || s.stampCtr != ctr {
				t.Fatalf("after the commit: counter %d, sealed %d, stamp %d; want nothing owed", ctr, s.sealedCtr, s.stampCtr)
			}
			s.mu.RLock()
			for _, num := range before {
				if s.segs.segs[num] == nil {
					freed++
				}
			}
			s.mu.RUnlock()
			return unlimited - env.fs.WriteOps(), freed
		}
		// The owing state's leftovers: segments the failed rounds left
		// unsynced (a sync each), a record a failed flush left in the
		// write-behind buffer (one write), and the file of a segment create
		// that failed after the file appeared, which the next create meets
		// (its failed create and the remove that replaces it).
		unsynced, buffered, stale := 0, 0, 0
		s.mu.RLock()
		for _, seg := range s.segs.segs {
			if !seg.synced {
				unsynced++
			}
		}
		if len(s.segs.wb) > 0 {
			buffered = 1
		}
		names, err := env.mem.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if slices.Contains(names, segmentName(s.segs.next)) {
			stale = 2
		}
		s.mu.RUnlock()
		owing, owingFreed := commit(bytes.Repeat([]byte("owing;"), env.cfg.SegmentSize/6+1))
		last := bytes.Repeat([]byte("hardened;"), env.cfg.SegmentSize/9+1)
		hardened, hardenedFreed := commit(last)
		t.Logf("device operations: %d from the owing store (%d segments unsynced, %d buffered write, %d for a stale file), %d from a hardened one",
			owing, unsynced, buffered, stale, hardened)
		if owingFreed != hardenedFreed {
			t.Fatalf("test premise: the owing commit freed %d segments, the hardened one %d", owingFreed, hardenedFreed)
		}
		// Beyond the leftovers, the owing store writes and syncs one seal
		// once the owed stamps are paid.
		if want := hardened + int64(unsynced+buffered+stale) + 2; owing != want {
			t.Fatalf("a commit from the owing store took %d device operations, want %d (%d from a hardened store, %d unsynced segments, %d buffered write, %d for a stale file, one seal)",
				owing, want, hardened, unsynced, buffered, stale)
		}
		env.mem.Crash()
		s2 := env.open(t)
		defer s2.Close()
		wantRead(t, s2, cid, string(last))
		if err := s2.Verify(); err != nil {
			t.Fatalf("Verify after recovery: %v", err)
		}
	})
}

// crashWhileOwing crashes the store oweRounds leaves, losing or keeping
// the writes it never synced, and checks what recovery keeps.
func crashWhileOwing(t *testing.T, lose bool) {
	env, _, cid, durable, maySurvive := oweRounds(t)
	if lose {
		env.mem.Crash()
	}
	s2 := env.open(t)
	defer s2.Close()
	got, err := s2.Read(cid)
	if err != nil {
		t.Fatalf("recovered Read: %v", err)
	}
	ok := bytes.Equal(got, durable)
	for _, v := range maySurvive {
		ok = ok || bytes.Equal(got, v)
	}
	if !ok {
		t.Fatalf("recovered Read = %.12q, want durable %.12q or one of %d unacknowledged later values",
			got, durable, len(maySurvive))
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
	t.Logf("recovered %.10q; durable %.10q, %d unacknowledged", got, durable, len(maySurvive))
}
