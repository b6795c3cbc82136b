package chunkstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// testEnv bundles the platform pieces of one store-under-test.
type testEnv struct {
	mem     *platform.MemStore
	fs      *platform.FaultStore
	counter *platform.MemCounter
	suite   sec.Suite
	cfg     Config
}

func newTestEnv(t *testing.T, suiteName string) *testEnv {
	t.Helper()
	suite := newTestSuite(t, suiteName)
	mem := platform.NewMemStore()
	fs := platform.NewFaultStore(mem)
	ctr := platform.NewMemCounter()
	env := &testEnv{mem: mem, fs: fs, counter: ctr, suite: suite}
	env.cfg = Config{
		Store:       fs,
		Counter:     ctr,
		Suite:       suite,
		SegmentSize: 8 << 10, // small segments exercise sealing and cleaning
	}
	return env
}

// newTestSuite returns the named suite under the test device secret. The
// retired defaults "aes-ctr-sha256" and "aes-ctr-gmac" name models over the
// default suite (digestLeafSuite), which only the tests keep.
func newTestSuite(t *testing.T, name string) sec.Suite {
	t.Helper()
	secret := []byte("test-device-secret-0123456789abc")
	if name == "aes-ctr-sha256" || name == "aes-ctr-gmac" {
		return retiredSuite(t, name, newTestSuite(t, "aes-gcm"), secret)
	}
	suite, err := sec.NewSuite(name, secret)
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	return suite
}

func (env *testEnv) open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// writeChunk is a one-op durable commit helper.
func writeChunk(t *testing.T, s *Store, cid ChunkID, data []byte) {
	t.Helper()
	b := s.NewBatch()
	b.Write(cid, data)
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit(write %d): %v", cid, err)
	}
}

func allocWrite(t *testing.T, s *Store, data []byte) ChunkID {
	t.Helper()
	cid, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	writeChunk(t, s, cid, data)
	return cid
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, suite := range []string{"3des-sha1", "aes-gcm", "aes-ctr-gmac", "aes-ctr-sha256", "null"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			s := env.open(t)
			defer s.Close()
			payloads := [][]byte{
				[]byte(""),
				[]byte("x"),
				[]byte("a usage meter record"),
				bytes.Repeat([]byte{0xab}, 5000),
			}
			var ids []ChunkID
			for _, p := range payloads {
				ids = append(ids, allocWrite(t, s, p))
			}
			for i, cid := range ids {
				got, err := s.Read(cid)
				if err != nil {
					t.Fatalf("Read(%d): %v", cid, err)
				}
				if !bytes.Equal(got, payloads[i]) {
					t.Fatalf("Read(%d): got %d bytes, want %d", cid, len(got), len(payloads[i]))
				}
			}
		})
	}
}

func TestOverwriteReturnsLatest(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	cid := allocWrite(t, s, []byte("v1"))
	for v := 2; v <= 10; v++ {
		writeChunk(t, s, cid, []byte(fmt.Sprintf("v%d", v)))
	}
	got, err := s.Read(cid)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != "v10" {
		t.Fatalf("Read: got %q, want v10", got)
	}
}

func TestReadErrors(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	if _, err := s.Read(12345); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("Read unallocated: %v", err)
	}
	cid, _ := s.AllocateChunkID()
	if _, err := s.Read(cid); !errors.Is(err, ErrNotWritten) {
		t.Fatalf("Read unwritten: %v", err)
	}
	if _, err := s.Read(0); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("Read chunk 0: %v", err)
	}
}

func TestWriteUnallocatedSignals(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	b := s.NewBatch()
	b.Write(999, []byte("x"))
	if err := s.Commit(b, true); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("Commit write to unallocated id: %v", err)
	}
}

func TestDeallocate(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	cid := allocWrite(t, s, []byte("doomed"))
	b := s.NewBatch()
	b.Deallocate(cid)
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit dealloc: %v", err)
	}
	if _, err := s.Read(cid); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("Read after dealloc: %v", err)
	}
	// Deallocating again signals.
	b2 := s.NewBatch()
	b2.Deallocate(cid)
	if err := s.Commit(b2, true); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("double dealloc: %v", err)
	}
	// The id is recycled.
	next, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	if next != cid {
		t.Fatalf("recycled id %d, want %d", next, cid)
	}
}

func TestReleaseUnwrittenID(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	cid, _ := s.AllocateChunkID()
	if err := s.Release(cid); err != nil {
		t.Fatalf("Release: %v", err)
	}
	again, _ := s.AllocateChunkID()
	if again != cid {
		t.Fatalf("Release did not recycle: got %d, want %d", again, cid)
	}
	// Release of a written chunk is rejected.
	w := allocWrite(t, s, []byte("w"))
	if err := s.Release(w); err == nil {
		t.Fatal("Release of written chunk should fail")
	}
	if err := s.Release(98765); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("Release unallocated: %v", err)
	}
}

func TestAtomicBatchCommit(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	defer s.Close()
	a, _ := s.AllocateChunkID()
	bID, _ := s.AllocateChunkID()
	c, _ := s.AllocateChunkID()
	b := s.NewBatch()
	b.Write(a, []byte("A"))
	b.Write(bID, []byte("B"))
	b.Write(c, []byte("C"))
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for cid, want := range map[ChunkID]string{a: "A", bID: "B", c: "C"} {
		got, err := s.Read(cid)
		if err != nil || string(got) != want {
			t.Fatalf("Read(%d): %q, %v", cid, got, err)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	for _, suite := range []string{"3des-sha1", "null"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			s := env.open(t)
			ids := make([]ChunkID, 20)
			for i := range ids {
				ids[i] = allocWrite(t, s, []byte(fmt.Sprintf("chunk-%d", i)))
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2 := env.open(t)
			defer s2.Close()
			for i, cid := range ids {
				got, err := s2.Read(cid)
				if err != nil {
					t.Fatalf("Read(%d) after reopen: %v", cid, err)
				}
				if string(got) != fmt.Sprintf("chunk-%d", i) {
					t.Fatalf("Read(%d): got %q", cid, got)
				}
			}
			if err := s2.Verify(); err != nil {
				t.Fatalf("Verify after reopen: %v", err)
			}
		})
	}
}

func TestRecoveryWithoutCleanClose(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	cid := allocWrite(t, s, []byte("durable data"))
	// Simulate power loss without Close: the memstore keeps only synced
	// bytes.
	env.mem.Crash()
	s2 := env.open(t)
	defer s2.Close()
	got, err := s2.Read(cid)
	if err != nil || string(got) != "durable data" {
		t.Fatalf("Read after crash: %q, %v", got, err)
	}
}

func TestNondurableCommitLostOnCrash(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	durable := allocWrite(t, s, []byte("keep"))
	volatileID, _ := s.AllocateChunkID()
	b := s.NewBatch()
	b.Write(volatileID, []byte("lose"))
	if err := s.Commit(b, false); err != nil {
		t.Fatalf("nondurable Commit: %v", err)
	}
	// Nondurable state is readable before the crash.
	if got, err := s.Read(volatileID); err != nil || string(got) != "lose" {
		t.Fatalf("Read nondurable: %q, %v", got, err)
	}
	env.mem.Crash()
	s2 := env.open(t)
	defer s2.Close()
	if got, err := s2.Read(durable); err != nil || string(got) != "keep" {
		t.Fatalf("Read durable after crash: %q, %v", got, err)
	}
	if _, err := s2.Read(volatileID); err == nil {
		t.Fatal("nondurable commit survived a crash")
	}
}

func TestNondurableCommitSurvivesAfterDurable(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	nd, _ := s.AllocateChunkID()
	b := s.NewBatch()
	b.Write(nd, []byte("promoted"))
	if err := s.Commit(b, false); err != nil {
		t.Fatalf("nondurable Commit: %v", err)
	}
	// A subsequent durable commit makes all previous nondurable commits
	// durable (paper Figure 3 semantics).
	other := allocWrite(t, s, []byte("other"))
	env.mem.Crash()
	s2 := env.open(t)
	defer s2.Close()
	if got, err := s2.Read(nd); err != nil || string(got) != "promoted" {
		t.Fatalf("promoted nondurable data: %q, %v", got, err)
	}
	if got, err := s2.Read(other); err != nil || string(got) != "other" {
		t.Fatalf("durable data: %q, %v", got, err)
	}
}

func TestUpdatesSurviveManyCommitsAndReopen(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	const n = 50
	ids := make([]ChunkID, n)
	for i := range ids {
		ids[i] = allocWrite(t, s, []byte(fmt.Sprintf("init-%d", i)))
	}
	// Interleave updates and deallocations across many commits to cross
	// segment boundaries and trigger checkpoints.
	for round := 0; round < 20; round++ {
		b := s.NewBatch()
		for i := 0; i < n; i += 3 {
			b.Write(ids[i], []byte(fmt.Sprintf("round-%d-%d", round, i)))
		}
		if err := s.Commit(b, true); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := env.open(t)
	defer s2.Close()
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("init-%d", i)
		if i%3 == 0 {
			want = fmt.Sprintf("round-19-%d", i)
		}
		got, err := s2.Read(ids[i])
		if err != nil || string(got) != want {
			t.Fatalf("Read(%d): got %q want %q err %v", ids[i], got, want, err)
		}
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestEmptyCommitIsNoOp(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	before := s.Stats().CommitSeq
	if err := s.Commit(s.NewBatch(), false); err != nil {
		t.Fatalf("empty nondurable commit: %v", err)
	}
	if got := s.Stats().CommitSeq; got != before {
		t.Fatalf("empty nondurable commit advanced seq %d -> %d", before, got)
	}
	// An empty durable commit is a valid sync point.
	if err := s.Commit(s.NewBatch(), true); err != nil {
		t.Fatalf("empty durable commit: %v", err)
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	cid := allocWrite(t, s, []byte("x"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Read(cid); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after close: %v", err)
	}
	if _, err := s.AllocateChunkID(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Allocate after close: %v", err)
	}
	if err := s.Commit(s.NewBatch(), true); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestStatsTracking(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	if st := s.Stats(); st.Chunks != 0 {
		t.Fatalf("initial chunks: %d", st.Chunks)
	}
	var ids []ChunkID
	for i := 0; i < 10; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte("d"), 100)))
	}
	st := s.Stats()
	if st.Chunks != 10 {
		t.Fatalf("chunks: %d, want 10", st.Chunks)
	}
	if st.LiveBytes <= 0 || st.DiskBytes < st.LiveBytes {
		t.Fatalf("sizes: live=%d disk=%d", st.LiveBytes, st.DiskBytes)
	}
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Fatalf("utilization: %f", st.Utilization)
	}
	b := s.NewBatch()
	b.Deallocate(ids[0])
	s.Commit(b, true)
	if st := s.Stats(); st.Chunks != 9 {
		t.Fatalf("chunks after dealloc: %d", st.Chunks)
	}
}

// TestSuiteMismatchRejected opens a store under each suite it was not
// created with. The superblock MACs differ before the recorded suite names
// are compared, so the open fails as tampering (ErrTampered, not ErrUsage)
// and must say which suite the slots claim. The AES suites — the default
// and the models of the two it replaced — share a MAC key, so between them
// the slots verify and the recorded name is a usage error instead. A
// flipped MAC byte under the right suite is plain tampering too.
func TestSuiteMismatchRejected(t *testing.T) {
	suites := []string{"3des-sha1", "aes-gcm", "aes-ctr-gmac", "aes-ctr-sha256", "null"}
	for _, created := range suites {
		for _, opened := range suites {
			if opened == created {
				continue
			}
			t.Run(created+"/as-"+opened, func(t *testing.T) {
				env := newTestEnv(t, created)
				s := env.open(t)
				allocWrite(t, s, []byte("x"))
				if err := s.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				cfg := env.cfg
				cfg.Suite = newTestSuite(t, opened)
				_, err := Open(cfg)
				if strings.HasPrefix(created, "aes-") && strings.HasPrefix(opened, "aes-") {
					if errors.Is(err, ErrTampered) || !errors.Is(err, ErrUsage) || !strings.Contains(err.Error(), fmt.Sprintf("%q", created)) {
						t.Fatalf("opening a %s store as %s: %v, want a usage error naming %s", created, opened, err, created)
					}
					return
				}
				if !errors.Is(err, ErrTampered) || errors.Is(err, ErrUsage) {
					t.Fatalf("opening a %s store as %s: %v, want ErrTampered", created, opened, err)
				}
				if want := fmt.Sprintf("slot names %q, format %d", created, formatVersion); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name the claimed suite (%s)", err, want)
				}
			})
		}
	}
	for _, suite := range []string{"3des-sha1", "aes-gcm", "aes-ctr-gmac", "aes-ctr-sha256"} {
		t.Run(suite+"/flipped-mac", func(t *testing.T) {
			env := newTestEnv(t, suite)
			s := env.open(t)
			allocWrite(t, s, []byte("x"))
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			sb := env.mem.Snapshot()[superblockName]
			for off := 0; off+4 <= len(sb); off += superSlotSize {
				plen := int(binary.BigEndian.Uint16(sb[off : off+2]))
				if plen == 0 {
					continue
				}
				if err := env.mem.Corrupt(superblockName, int64(off+4+plen)); err != nil {
					t.Fatalf("Corrupt: %v", err)
				}
			}
			_, err := Open(env.cfg)
			if !errors.Is(err, ErrTampered) || errors.Is(err, ErrUsage) {
				t.Fatalf("open with flipped superblock MACs: %v, want ErrTampered", err)
			}
		})
	}
}

// TestFormatOneStoreRefused: a store written before round seals existed
// (format 1) has no seal records, so its newest round would read as cut;
// one written before node segments existed (format 2) mixes map-node and
// chunk records in its segments, which the cleaner no longer handles; one
// written before the null suite's checksums became CRC-32C (format 3)
// fails them. The superblock slots of each must be refused as such, naming
// the format, not parsed as a current store. The slots here are re-signed
// with the right suite, so the version is the only thing wrong with them.
func TestFormatOneStoreRefused(t *testing.T) {
	for _, version := range []uint16{1, 2, 3} {
		env := newTestEnv(t, "aes-gcm")
		s := env.open(t)
		allocWrite(t, s, []byte("x"))
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		img := env.mem.Snapshot()
		sb := img[superblockName]
		for off := 0; off+4 <= len(sb); off += superSlotSize {
			plen := int(binary.BigEndian.Uint16(sb[off : off+2]))
			if plen == 0 {
				continue
			}
			payload := sb[off+4 : off+4+plen]
			binary.BigEndian.PutUint16(payload[16:18], version)
			copy(sb[off+4+plen:], env.suite.MAC(payload))
		}
		env.mem.Restore(img)
		_, err := Open(env.cfg)
		if want := fmt.Sprintf("format %d", version); !errors.Is(err, ErrTampered) || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open of a format-%d store: %v, want ErrTampered naming %s", version, err, want)
		}
	}
}

func TestWrongSecretRejected(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	allocWrite(t, s, []byte("secret data"))
	s.Close()
	wrong, _ := sec.NewSuite("3des-sha1", []byte("some-other-device-secret-xxxxxxx"))
	cfg := env.cfg
	cfg.Suite = wrong
	if _, err := Open(cfg); !errors.Is(err, ErrTampered) {
		t.Fatalf("opening with wrong secret: %v, want ErrTampered", err)
	}
}

func TestLargeBatchSpanningSegments(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	defer s.Close()
	// Each chunk is 1 KiB; 8 KiB segments force several seals within one
	// commit.
	b := s.NewBatch()
	var ids []ChunkID
	for i := 0; i < 40; i++ {
		cid, _ := s.AllocateChunkID()
		ids = append(ids, cid)
		b.Write(cid, bytes.Repeat([]byte{byte(i)}, 1024))
	}
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	for i, cid := range ids {
		got, err := s.Read(cid)
		if err != nil || len(got) != 1024 || got[0] != byte(i) {
			t.Fatalf("Read(%d): len=%d err=%v", cid, len(got), err)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestChunkLargerThanSegment(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	big := bytes.Repeat([]byte("B"), 3*env.cfg.SegmentSize)
	cid := allocWrite(t, s, big)
	got, err := s.Read(cid)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Read oversized chunk: len=%d err=%v", len(got), err)
	}
	env.mem.Crash()
	s2 := env.open(t)
	defer s2.Close()
	got, err = s2.Read(cid)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Read oversized chunk after crash: len=%d err=%v", len(got), err)
	}
}
