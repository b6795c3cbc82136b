package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tdb/internal/platform"
)

// These tests model the paper's threat model (§3): the attacker fully
// controls the untrusted store and may read, modify, or replay it off-line;
// the chunk store must detect every modification, including replay attacks,
// while the secret store and one-way counter remain trustworthy.

// populate creates a store with some committed data and closes it.
func populate(t *testing.T, env *testEnv, n int) []ChunkID {
	t.Helper()
	s := env.open(t)
	ids := make([]ChunkID, n)
	for i := range ids {
		ids[i] = allocWrite(t, s, []byte(fmt.Sprintf("valuable-record-%04d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return ids
}

// expectTamperedOrIntact checks the security property for one corruption:
// the store must either signal ErrTampered (at open, read, or verify) or be
// completely unaffected — every chunk still reads back its correct content.
// What it must never do is silently return wrong data. (Flips can land in
// dead log regions — obsolete versions, discarded commit tails, superblock
// slot padding — where they are harmless by construction.)
func expectTamperedOrIntact(t *testing.T, env *testEnv, ids []ChunkID, want func(i int) []byte) {
	t.Helper()
	s, err := Open(env.cfg)
	if err != nil {
		if errors.Is(err, ErrTampered) {
			return
		}
		t.Fatalf("Open failed with non-tamper error: %v", err)
	}
	defer s.Close()
	for i, cid := range ids {
		got, err := s.Read(cid)
		if err != nil {
			if errors.Is(err, ErrTampered) {
				return
			}
			t.Fatalf("Read(%d) failed with non-tamper error: %v", cid, err)
		}
		if !bytes.Equal(got, want(i)) {
			t.Fatalf("SILENT CORRUPTION: chunk %d reads %q, want %q", cid, got, want(i))
		}
	}
	if err := s.Verify(); err != nil && !errors.Is(err, ErrTampered) {
		t.Fatalf("Verify failed with non-tamper error: %v", err)
	}
}

func TestTamperDetectSegmentBitFlips(t *testing.T) {
	for _, suite := range []string{"3des-sha1", "aes-sha256"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			ids := populate(t, env, 30)
			// Flip one byte at several positions in every segment file and
			// verify each flip is detected.
			names, _ := env.mem.List()
			for _, name := range names {
				num, ok := parseSegmentName(name)
				if !ok {
					continue
				}
				_ = num
				snap := env.mem.Snapshot()
				size := int64(len(snap[name]))
				for _, off := range []int64{segHeaderSize + 3, size / 3, size / 2, size - 2} {
					if off < 0 || off >= size {
						continue
					}
					env.mem.Restore(snap)
					if err := env.mem.Corrupt(name, off); err != nil {
						t.Fatalf("Corrupt(%s,%d): %v", name, off, err)
					}
					expectTamperedOrIntact(t, env, ids, func(i int) []byte {
						return []byte(fmt.Sprintf("valuable-record-%04d", i))
					})
				}
				env.mem.Restore(snap)
			}
		})
	}
}

func TestTamperDetectSuperblockCorruption(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	ids := populate(t, env, 5)
	snap := env.mem.Snapshot()
	size := int64(len(snap[superblockName]))
	for off := int64(0); off < size; off += 37 {
		env.mem.Restore(snap)
		env.mem.Corrupt(superblockName, off)
		expectTamperedOrIntact(t, env, ids, func(i int) []byte {
			return []byte(fmt.Sprintf("valuable-record-%04d", i))
		})
	}
}

func TestReplayAttackDetected(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	cid := allocWrite(t, s, []byte("balance=100"))
	s.Close()

	// The consumer saves a copy of the database...
	saved := env.mem.Snapshot()

	// ...spends the balance...
	s = env.open(t)
	writeChunk(t, s, cid, []byte("balance=0"))
	s.Close()

	// ...and replays the saved copy to restore the balance. The one-way
	// counter, which the attacker cannot rewind, exposes the replay.
	env.mem.Restore(saved)
	_, err := Open(env.cfg)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("replayed stale database accepted: %v", err)
	}
}

func TestReplayAttackUndetectedWithoutCounter(t *testing.T) {
	// The security-off configuration (paper's plain TDB) deliberately skips
	// the counter; a replayed database then opens fine. This documents the
	// trade-off rather than a bug.
	env := newTestEnv(t, "null")
	s := env.open(t)
	cid := allocWrite(t, s, []byte("balance=100"))
	s.Close()
	saved := env.mem.Snapshot()
	s = env.open(t)
	writeChunk(t, s, cid, []byte("balance=0"))
	s.Close()
	env.mem.Restore(saved)
	s, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	got, _ := s.Read(cid)
	if string(got) != "balance=100" {
		t.Fatalf("expected stale state without counter protection, got %q", got)
	}
}

func TestLogTruncationDetected(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	cid := allocWrite(t, s, []byte("v1"))
	s.Close()
	saved := env.mem.Snapshot()

	s = env.open(t)
	writeChunk(t, s, cid, []byte("v2"))
	writeChunk(t, s, cid, []byte("v3"))
	s.Close()

	// Splice: restore old segment content but keep the new counter — this
	// models an attacker truncating the log back to an earlier commit.
	cur := env.mem.Snapshot()
	for name, data := range saved {
		if _, ok := parseSegmentName(name); ok {
			cur[name] = data
		}
		if name == superblockName {
			cur[name] = data
		}
	}
	env.mem.Restore(cur)
	if _, err := Open(env.cfg); !errors.Is(err, ErrTampered) {
		t.Fatalf("truncated log accepted: %v", err)
	}
}

func TestCrossChunkSwapDetected(t *testing.T) {
	// Swapping the stored records of two chunks (both individually valid)
	// must be caught by the Merkle tree.
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	a, _ := s.AllocateChunkID()
	bID, _ := s.AllocateChunkID()
	batch := s.NewBatch()
	payload := bytes.Repeat([]byte("A"), 64)
	payload2 := bytes.Repeat([]byte("B"), 64)
	batch.Write(a, payload)
	batch.Write(bID, payload2)
	if err := s.Commit(batch, true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Locate the two write records in the log and swap their bodies.
	s.mu.Lock()
	ea, _ := s.lm.get(a)
	eb, _ := s.lm.get(bID)
	_, bodyA, _ := s.segs.readRecord(ea.loc)
	_, bodyB, _ := s.segs.readRecord(eb.loc)
	if len(bodyA) != len(bodyB) {
		s.mu.Unlock()
		t.Skip("unequal record sizes; swap not byte-compatible")
	}
	segA := s.segs.segs[ea.loc.Seg]
	segB := s.segs.segs[eb.loc.Seg]
	// Swap ciphertexts but keep each record's chunk id and CRC valid, as a
	// competent attacker would.
	recA := encodeRecord(recWrite, writeRecordBody(a, bodyB[8:]))
	recB := encodeRecord(recWrite, writeRecordBody(bID, bodyA[8:]))
	segA.file.WriteAt(recA, int64(ea.loc.Off))
	segB.file.WriteAt(recB, int64(eb.loc.Off))
	s.mu.Unlock()

	if _, err := s.Read(a); !errors.Is(err, ErrTampered) {
		t.Fatalf("swapped chunk read: %v", err)
	}
}

func TestSecrecyNoPlaintextInStore(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	secretPayload := []byte("CONTENT-DECRYPTION-KEY-0xDEADBEEF")
	allocWrite(t, s, secretPayload)
	s.Close()
	for name, data := range env.mem.Snapshot() {
		if bytes.Contains(data, secretPayload) {
			t.Fatalf("plaintext leaked into untrusted store file %q", name)
		}
		if bytes.Contains(data, []byte("DECRYPTION")) {
			t.Fatalf("plaintext fragment leaked into %q", name)
		}
	}
}

func TestNullSuiteStoresPlaintext(t *testing.T) {
	// Sanity check of the control: with security off the payload IS visible,
	// which is exactly what TDB-S pays to avoid.
	env := newTestEnv(t, "null")
	s := env.open(t)
	allocWrite(t, s, []byte("VISIBLE-PAYLOAD"))
	s.Close()
	found := false
	for _, data := range env.mem.Snapshot() {
		if bytes.Contains(data, []byte("VISIBLE-PAYLOAD")) {
			found = true
		}
	}
	if !found {
		t.Fatal("null suite should store plaintext")
	}
}

func TestCounterFileRollbackDetected(t *testing.T) {
	// Even if the attacker resets the *emulated* counter file together with
	// the database, a genuinely hardware-backed counter cannot be reset. We
	// model the hardware with MemCounter (outside the untrusted store), so
	// only the database files are replayed — the counter keeps its value.
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	cid := allocWrite(t, s, []byte("x"))
	s.Close()
	saved := env.mem.Snapshot()
	s = env.open(t)
	for i := 0; i < 5; i++ {
		writeChunk(t, s, cid, []byte(fmt.Sprintf("y%d", i)))
	}
	s.Close()
	env.mem.Restore(saved)
	if _, err := Open(env.cfg); !errors.Is(err, ErrTampered) {
		t.Fatalf("rollback accepted: %v", err)
	}
}

func TestTamperedAllocatorFreeListCaught(t *testing.T) {
	// A corrupted checkpoint cannot slip a live id onto the free list
	// unnoticed, because checkpoints are MACed; this test instead corrupts
	// the in-memory allocator directly to exercise the allocate-time
	// cross-check.
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	cid := allocWrite(t, s, []byte("live"))
	s.mu.Lock()
	s.alloc.freeSet[cid] = struct{}{}
	s.alloc.freeList = append(s.alloc.freeList, cid)
	s.mu.Unlock()
	if _, err := s.AllocateChunkID(); !errors.Is(err, ErrTampered) {
		t.Fatalf("allocation of live id: %v", err)
	}
}

func TestFileCounterBackedStore(t *testing.T) {
	// End-to-end with the paper's emulated file counter living in the same
	// untrusted store as the database.
	mem := platform.NewMemStore()
	ctr, err := platform.NewFileCounter(mem, "counter")
	if err != nil {
		t.Fatalf("NewFileCounter: %v", err)
	}
	env := newTestEnv(t, "3des-sha1")
	env.mem = mem
	env.cfg.Store = mem
	env.cfg.Counter = ctr
	s := env.open(t)
	cid := allocWrite(t, s, []byte("data"))
	s.Close()
	ctr2, err := platform.NewFileCounter(mem, "counter")
	if err != nil {
		t.Fatalf("reopen counter: %v", err)
	}
	env.cfg.Counter = ctr2
	s2 := env.open(t)
	defer s2.Close()
	if got, err := s2.Read(cid); err != nil || string(got) != "data" {
		t.Fatalf("Read: %q, %v", got, err)
	}
}
