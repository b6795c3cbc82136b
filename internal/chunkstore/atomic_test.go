package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// storeSnapshot captures the externally observable state the atomicity
// tests compare across a failed commit: the map's contents through its
// Merkle root, the accounting, and the log's logical extent — its segments
// and its tail, past which a failed commit buffers no byte.
type storeSnapshot struct {
	chunks    int64
	commitSeq uint64
	liveBytes int64
	segments  int
	tail      tailMark
	root      string
}

func snapshotState(s *Store) storeSnapshot {
	st := s.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return storeSnapshot{
		chunks:    st.Chunks,
		commitSeq: st.CommitSeq,
		liveBytes: st.LiveBytes,
		segments:  st.Segments,
		tail:      s.segs.mark(),
		root:      fmt.Sprintf("%x", s.lm.rootHash()),
	}
}

// fillWriteBehind commits a nondurable cap-sized write of cid, so the
// write-behind buffers hold writeBehindCap bytes or more and the next
// commit's stage 2 starts with their flush: the only device I/O stage 2
// does, and so the only crash points where a commit fails having applied
// nothing. Automatic checkpoints are held off meanwhile, as their harden
// would flush the buffers. It returns the device operations that flush
// costs: a WriteAt per buffered segment, and a Create for each whose file
// does not exist yet.
func fillWriteBehind(t *testing.T, s *Store, cid ChunkID) (flushOps int64) {
	t.Helper()
	s.mu.Lock()
	auto := s.cfg.DisableAutoCheckpoint
	s.cfg.DisableAutoCheckpoint = true
	s.mu.Unlock()
	b := s.NewBatch()
	b.Write(cid, bytes.Repeat([]byte("f"), writeBehindCap))
	if err := s.Commit(b, false); err != nil {
		t.Fatalf("filling the write-behind buffers: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.DisableAutoCheckpoint = auto
	if s.segs.buffered < writeBehindCap {
		t.Fatalf("test premise: %d bytes buffered, want at least the cap %d", s.segs.buffered, writeBehindCap)
	}
	for _, seg := range s.segs.unflushed {
		flushOps++
		if seg.file == nil {
			flushOps++
		}
	}
	return flushOps
}

// TestCommitAtomicOnAppendFault sweeps an injected storage crash across
// every device operation of a mixed batch's commit (overwrite + deallocate
// + first write, each write larger than a segment, so the batch rolls the
// log into new segments), each budget on a fresh store whose write-behind
// buffers start full, so stage 2 begins with their flush. Every failure is
// exactly one of two kinds. Below the flush's operation count, nothing
// applied: map, accounting, segments and log tail are as they were, and
// reads see the pre-batch contents. From there on the batch applied and
// only its harden failed: ErrNotDurable. A crash and reopen after either
// lands on exactly the pre-batch or the post-batch state — the pre-batch
// one after a failure that applied nothing.
func TestCommitAtomicOnAppendFault(t *testing.T) {
	for _, suiteName := range []string{"3des-sha1", "null"} {
		t.Run(suiteName, func(t *testing.T) {
			oldA := bytes.Repeat([]byte("a"), 512)
			oldB := bytes.Repeat([]byte("b"), 512)
			var nothingApplied, notDurable, flushOps int64
			for budget := int64(0); ; budget++ {
				env := newTestEnv(t, suiteName)
				env.cfg.DisableAutoClean = true
				env.cfg.DisableAutoCheckpoint = true
				s := env.open(t)
				a := allocWrite(t, s, oldA)
				bID := allocWrite(t, s, oldB)
				c, err := s.AllocateChunkID()
				if err != nil {
					t.Fatalf("AllocateChunkID: %v", err)
				}
				filler, err := s.AllocateChunkID()
				if err != nil {
					t.Fatalf("AllocateChunkID: %v", err)
				}
				flushOps = fillWriteBehind(t, s, filler)

				newA := bytes.Repeat([]byte("A"), env.cfg.SegmentSize+700)
				newC := bytes.Repeat([]byte("C"), env.cfg.SegmentSize+300)
				batch := s.NewBatch()
				batch.Write(a, newA)
				batch.Deallocate(bID)
				batch.Write(c, newC)

				// pre and post check the batch's three chunks in one state.
				// An allocation is transient until written, so after a
				// recovery c reads not allocated.
				pre := func(s *Store, unwritten error) {
					t.Helper()
					wantRead(t, s, a, string(oldA))
					wantRead(t, s, bID, string(oldB))
					if _, err := s.Read(c); !errors.Is(err, unwritten) {
						t.Fatalf("budget %d: Read(unwritten) = %v, want %v", budget, err, unwritten)
					}
				}
				post := func(s *Store) {
					t.Helper()
					wantRead(t, s, a, string(newA))
					wantRead(t, s, c, string(newC))
					if _, err := s.Read(bID); !errors.Is(err, ErrNotAllocated) {
						t.Fatalf("budget %d: Read(deallocated) = %v, want ErrNotAllocated", budget, err)
					}
				}

				before := snapshotState(s)
				env.fs.SetWriteBudget(budget)
				err = s.Commit(batch, true)
				env.fs.SetWriteBudget(-1)
				if errors.Is(err, ErrMaintenance) {
					t.Fatalf("budget %d: maintenance error with maintenance disabled: %v", budget, err)
				}
				applied := err == nil || errors.Is(err, ErrNotDurable)
				if applied != (budget >= flushOps) {
					t.Fatalf("budget %d: Commit = %v, but the pre-flush takes %d device operations", budget, err, flushOps)
				}
				switch {
				case err == nil:
					post(s)
				case applied:
					notDurable++
					post(s)
				default:
					nothingApplied++
					if got := snapshotState(s); got != before {
						t.Fatalf("budget %d: state changed across failed commit: %+v != %+v", budget, got, before)
					}
					if batch.Len() != 3 {
						t.Fatalf("budget %d: failed commit left %d ops staged, want 3", budget, batch.Len())
					}
					pre(s, ErrNotWritten)
				}
				if err := s.Verify(); err != nil {
					t.Fatalf("budget %d: Verify: %v", budget, err)
				}

				env.mem.Crash()
				s2 := env.open(t)
				if err := s2.Verify(); err != nil {
					t.Fatalf("budget %d: Verify after crash recovery: %v", budget, err)
				}
				// Only a hardened batch may, and must, survive the crash.
				got, rerr := s2.Read(a)
				if rerr != nil {
					t.Fatalf("budget %d: recovered Read(a): %v", budget, rerr)
				}
				switch survived := bytes.Equal(got, newA); {
				case err == nil && !survived, !applied && survived:
					t.Fatalf("budget %d: Commit = %v, yet the batch survived a crash: %v", budget, err, survived)
				case survived:
					post(s2)
				default:
					pre(s2, ErrNotAllocated)
				}
				s2.Close()
				if err == nil {
					break
				}
			}
			if nothingApplied != flushOps || nothingApplied < 4 || notDurable == 0 {
				t.Fatalf("fault sweep: %d failures applied nothing (want the pre-flush's %d, at least 4: a Create and a WriteAt per buffered segment), %d ErrNotDurable (want some)",
					nothingApplied, flushOps, notDurable)
			}
		})
	}
}

// TestCommitAtomicFirstWriteRollback covers a failed batch whose only
// effect would be a brand-new chunk (chunkCount increment path) and checks
// the freshly allocated id remains allocated-but-unwritten, so Release still
// accepts it after the failure. The failure is the pre-flush of full
// write-behind buffers.
func TestCommitAtomicFirstWriteRollback(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.DisableAutoClean = true
	env.cfg.DisableAutoCheckpoint = true
	s := env.open(t)
	defer s.Close()

	filler := allocWrite(t, s, []byte("filler"))
	fillWriteBehind(t, s, filler)
	cid, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	batch := s.NewBatch()
	// Larger than a segment, so the batch rolls the log.
	batch.Write(cid, bytes.Repeat([]byte("p"), env.cfg.SegmentSize+1))

	before := snapshotState(s)
	env.fs.SetWriteBudget(1)
	if err := s.Commit(batch, true); err == nil || errors.Is(err, ErrNotDurable) {
		t.Fatalf("Commit with 1-write budget: %v, want a stage-2 failure", err)
	}
	env.fs.SetWriteBudget(-1)

	if got := snapshotState(s); got != before {
		t.Fatalf("failed first write changed the store: %+v != %+v", got, before)
	}
	// Still allocated, still unwritten: Release must accept it.
	if err := s.Release(cid); err != nil {
		t.Fatalf("Release after failed commit: %v", err)
	}
}

// TestCommitAtomicOnMapFault fails a batch's map fault-in, the other
// fallible step of stage 2: its second write needs a map leaf that is not
// resident, and reading it fails. Its first write, of a chunk beyond the
// map's reach, would grow the tree if the fault-in created nodes, so a
// failure after it would leave a root no record replays. Nothing applies —
// the Merkle root included — and the store recovers from a crash after a
// later durable commit. A deallocation of a never-written chunk beyond the
// map's reach, which writes no record, must likewise leave the root as
// recovery rebuilds it.
func TestCommitAtomicOnMapFault(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	env.cfg.Fanout = 4
	env.cfg.CacheBytes = 2 << 10
	env.cfg.DisableAutoClean, env.cfg.DisableAutoCheckpoint = true, true
	env.cfg.Retry = RetryPolicy{MaxAttempts: 1, Sleep: func(time.Duration) {}}
	s := env.open(t)
	var ids []ChunkID
	for i := 0; i < 64; i++ {
		ids = append(ids, allocWrite(t, s, []byte(fmt.Sprintf("v0-%d", i))))
	}
	// Checkpointed map nodes are clean, so the tiny budget can evict them.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	victim := ids[0]
	s.mu.Lock()
	p, err := s.lm.descend(victim, 0, readPath)
	if err != nil || p.node == nil {
		s.mu.Unlock()
		t.Fatalf("descend(%d): %v", victim, err)
	}
	for i := 0; s.lm.resident(p.node); i++ {
		if i == 8 {
			s.mu.Unlock()
			t.Fatal("test premise: the victim's leaf is never evicted")
		}
		s.lm.sweep(nil)
	}
	capacity := s.lm.capacity()
	s.mu.Unlock()
	// beyond and gone lie past the map's reach.
	var beyond, gone ChunkID
	for beyond == 0 || gone == 0 {
		cid, err := s.AllocateChunkID()
		if err != nil {
			t.Fatalf("AllocateChunkID: %v", err)
		}
		switch {
		case uint64(cid) < capacity:
		case beyond == 0:
			beyond = cid
		default:
			gone = cid
		}
	}

	b := s.NewBatch()
	b.Write(beyond, []byte("beyond"))
	b.Write(victim, []byte("v1"))
	before := snapshotState(s)
	env.fs.SetTransientReads(1, 1<<20)
	err = s.Commit(b, true)
	env.fs.SetTransientReads(0, 0)
	if !errors.Is(err, ErrIO) || errors.Is(err, ErrNotDurable) {
		t.Fatalf("Commit with a failing map read = %v, want a plain ErrIO", err)
	}
	if got := snapshotState(s); got != before {
		t.Fatalf("failed fault-in changed the store: %+v != %+v", got, before)
	}
	wantRead(t, s, victim, "v0-0")

	d := s.NewBatch()
	d.Deallocate(gone)
	if err := s.Commit(d, true); err != nil {
		t.Fatalf("deallocating a never-written chunk: %v", err)
	}
	writeChunk(t, s, ids[1], []byte("v1-1"))
	env.mem.Crash()
	s2 := env.open(t)
	defer s2.Close()
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
	wantRead(t, s2, victim, "v0-0")
	wantRead(t, s2, ids[1], "v1-1")
	if _, err := s2.Read(beyond); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("recovered Read(beyond) = %v, want ErrNotAllocated", err)
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
	filler, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
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
		// Stage 2 starts with a flush of full write-behind buffers, so low
		// budgets crash it before anything is applied.
		fillWriteBehind(t, s, filler)
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
		// unsynced (a sync each), and segments whose bytes a failed flush
		// left buffered (a write each, and a create for each whose file
		// the flush never reached).
		unsynced, buffered, creates := 0, 0, 0
		s.mu.RLock()
		for _, seg := range s.segs.segs {
			if !seg.synced {
				unsynced++
			}
		}
		for _, seg := range s.segs.unflushed {
			buffered++
			if seg.file == nil {
				creates++
			}
		}
		s.mu.RUnlock()
		owing, owingFreed := commit(bytes.Repeat([]byte("owing;"), env.cfg.SegmentSize/6+1))
		last := bytes.Repeat([]byte("hardened;"), env.cfg.SegmentSize/9+1)
		hardened, hardenedFreed := commit(last)
		// A failed checkpoint's roll to a node segment of its own cannot
		// fail, so the failed checkpoints also left node segments, which
		// the commit's checkpoint empties and frees: a Remove each.
		removes := owingFreed - hardenedFreed
		t.Logf("device operations: %d from the owing store (%d segments unsynced, %d buffered, %d never created, %d more freed), %d from a hardened one",
			owing, unsynced, buffered, creates, removes, hardened)
		if removes < 0 {
			t.Fatalf("test premise: the owing commit freed %d segments, the hardened one %d", owingFreed, hardenedFreed)
		}
		// Beyond the leftovers, the owing store writes and syncs one seal
		// once the owed stamps are paid.
		if want := hardened + int64(unsynced+buffered+creates+removes) + 2; owing != want {
			t.Fatalf("a commit from the owing store took %d device operations, want %d (%d from a hardened store, %d unsynced segments, %d buffered, %d never created, %d more freed, one seal)",
				owing, want, hardened, unsynced, buffered, creates, removes)
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
