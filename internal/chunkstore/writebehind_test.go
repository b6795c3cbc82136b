package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// wbEnv is a store-under-test with an I/O meter between the chunk store and
// memory, for asserting which appends physically reach the device.
type wbEnv struct {
	mem   *platform.MemStore
	meter *platform.MeterStore
	cfg   Config
}

func newWBEnv(t *testing.T) *wbEnv {
	t.Helper()
	suite, err := sec.NewSuite("aes-gcm", []byte("write-behind-test-secret-0123456"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	env := &wbEnv{mem: platform.NewMemStore()}
	env.meter = platform.NewMeterStore(env.mem)
	env.cfg = Config{
		Store:       env.meter,
		Counter:     platform.NewMemCounter(),
		Suite:       suite,
		SegmentSize: 1 << 20,
		// No background maintenance: every metered op below is attributable
		// to the commits under test.
		DisableAutoClean:      true,
		DisableAutoCheckpoint: true,
	}
	return env
}

// TestWriteBehindNondurableCommitsVanishOnCrash proves the two halves of the
// buffer's durability story at once: nondurable buffered commits cost zero
// physical write ops, and a crash makes them vanish cleanly — recovery lands
// on the durable state with no tamper alarm, exactly as if the commits had
// never happened (§3.2.2: unflushed bytes are a strict subset of the
// nondurable suffix recovery already discards).
func TestWriteBehindNondurableCommitsVanishOnCrash(t *testing.T) {
	env := newWBEnv(t)
	s, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	base := bytes.Repeat([]byte("base"), 128)
	a := allocWrite(t, s, base) // durable baseline
	bID, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}

	before := env.meter.Stats().Snapshot()
	for round := 0; round < 16; round++ {
		b := s.NewBatch()
		b.Write(a, bytes.Repeat([]byte{byte('A' + round)}, 256))
		b.Write(bID, bytes.Repeat([]byte{byte('a' + round)}, 256))
		if err := s.Commit(b, false); err != nil {
			t.Fatalf("nondurable Commit round %d: %v", round, err)
		}
	}
	delta := env.meter.Stats().Snapshot().Sub(before)
	if delta.WriteOps != 0 || delta.SyncOps != 0 || delta.TruncateOps != 0 {
		t.Fatalf("nondurable buffered commits touched the device: %+v", delta)
	}

	// Power loss. The buffered suffix never reached the store, so recovery
	// must see exactly the durable baseline.
	env.mem.Crash()
	s2, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer s2.Close()
	if got, err := s2.Read(a); err != nil || !bytes.Equal(got, base) {
		t.Fatalf("recovered Read(a) = %.12q..., %v; want durable baseline", got, err)
	}
	if _, err := s2.Read(bID); err == nil || errors.Is(err, ErrTampered) {
		t.Fatalf("Read of never-hardened chunk after crash: %v; want clean absence", err)
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}

// segRecord builds a CRC-valid log record for segmentSet-level tests.
func segRecord(fill byte, n int) []byte {
	return encodeRecord(recCommit, bytes.Repeat([]byte{fill}, n))
}

// readSegRecord reads a record back through the buffer-aware path and fails
// the test on any mismatch.
func readSegRecord(t *testing.T, ss *segmentSet, loc Location, want []byte) {
	t.Helper()
	typ, body, err := ss.readRecord(loc)
	if err != nil {
		t.Fatalf("readRecord(%v): %v", loc, err)
	}
	if typ != recCommit || !bytes.Equal(encodeRecord(typ, body), want) {
		t.Fatalf("readRecord(%v) returned wrong bytes", loc)
	}
}

// TestRewindOverBufferedBytesIsPureMemory pins the rewind fast path: when a
// failed commit's appended records still sit entirely in the write-behind
// buffer, rewinding them is a memory truncation — zero Truncate (and zero
// Write) ops on the meter — while a rewind over flushed bytes keeps the
// physical truncate.
func TestRewindOverBufferedBytesIsPureMemory(t *testing.T) {
	mem := platform.NewMemStore()
	meter := platform.NewMeterStore(mem)
	ss := newSegmentSet(meter, RetryPolicy{})

	recA, recB, recC := segRecord('A', 100), segRecord('B', 200), segRecord('C', 300)
	locA, err := ss.append(recA, 1<<20)
	if err != nil {
		t.Fatalf("append(recA): %v", err)
	}
	m := ss.mark()
	if _, err := ss.append(recB, 1<<20); err != nil {
		t.Fatalf("append(recB): %v", err)
	}
	if _, err := ss.append(recC, 1<<20); err != nil {
		t.Fatalf("append(recC): %v", err)
	}

	before := meter.Stats().Snapshot()
	if err := ss.rewind(m); err != nil {
		t.Fatalf("rewind over buffered bytes: %v", err)
	}
	delta := meter.Stats().Snapshot().Sub(before)
	if delta.TruncateOps != 0 || delta.WriteOps != 0 {
		t.Fatalf("buffered rewind hit the device: %+v", delta)
	}
	if ss.tail.size != m.size || int64(len(ss.wb)) != m.size-ss.wbOff {
		t.Fatalf("buffered rewind accounting: size=%d wb=%d wbOff=%d mark=%d",
			ss.tail.size, len(ss.wb), ss.wbOff, m.size)
	}
	// recA predates the mark and must survive, served from the buffer.
	readSegRecord(t, ss, locA, recA)

	// After an append + flush the surviving prefix reaches the file in one
	// coalesced write, and the record reads back from disk.
	locD, err := ss.append(recC, 1<<20)
	if err != nil {
		t.Fatalf("append(recD): %v", err)
	}
	before = meter.Stats().Snapshot()
	if err := ss.syncDirty(); err != nil {
		t.Fatalf("syncDirty: %v", err)
	}
	delta = meter.Stats().Snapshot().Sub(before)
	if delta.WriteOps != 1 {
		t.Fatalf("flush of the buffered tail took %d writes, want 1", delta.WriteOps)
	}
	readSegRecord(t, ss, locA, recA)
	readSegRecord(t, ss, locD, recC)

	// Contrast: a rewind over already-flushed bytes must truncate physically.
	m2 := ss.mark()
	if _, err := ss.append(recB, 1<<20); err != nil {
		t.Fatalf("append after flush: %v", err)
	}
	if err := ss.flushLocked(); err != nil {
		t.Fatalf("flushLocked: %v", err)
	}
	before = meter.Stats().Snapshot()
	if err := ss.rewind(m2); err != nil {
		t.Fatalf("rewind over flushed bytes: %v", err)
	}
	if got := meter.Stats().Snapshot().Sub(before).TruncateOps; got != 1 {
		t.Fatalf("flushed rewind issued %d truncates, want 1", got)
	}
	readSegRecord(t, ss, locD, recC)
}

// TestRewindAfterFailedFlushKeepsEarlierBufferedBytes covers the wbDirty
// hazard: a FAILED flush may have scribbled stale bytes on disk past the
// mark, so the rewind must cut the file back — but only to the last
// known-good physical size (wbOff), never the mark, because the bytes in
// [wbOff, mark) still live only in the buffer and must not be zero-filled
// on disk. A buffered record appended before the failing commit survives.
func TestRewindAfterFailedFlushKeepsEarlierBufferedBytes(t *testing.T) {
	mem := platform.NewMemStore()
	meter := platform.NewMeterStore(mem)
	fs := platform.NewFaultStore(meter)
	// MaxAttempts 1: the injected transient error is terminal, not retried.
	retry := RetryPolicy{MaxAttempts: 1, Sleep: func(time.Duration) {}}
	ss := newSegmentSet(fs, retry)

	recA, recB := segRecord('A', 100), segRecord('B', 200)
	locA, err := ss.append(recA, 1<<20)
	if err != nil {
		t.Fatalf("append(recA): %v", err)
	}
	m := ss.mark()
	if _, err := ss.append(recB, 1<<20); err != nil {
		t.Fatalf("append(recB): %v", err)
	}

	fs.SetTransientWrites(1, 1)
	if err := ss.flushLocked(); err == nil {
		t.Fatal("flush under injected fault unexpectedly succeeded")
	}
	fs.SetTransientWrites(0, 0)
	if ss.wbDirty <= m.size {
		t.Fatalf("failed flush did not record its dirty high-water mark: %d", ss.wbDirty)
	}

	wbOff := ss.wbOff
	before := meter.Stats().Snapshot()
	if err := ss.rewind(m); err != nil {
		t.Fatalf("rewind after failed flush: %v", err)
	}
	if got := meter.Stats().Snapshot().Sub(before).TruncateOps; got != 1 {
		t.Fatalf("rewind past a dirty flush issued %d truncates, want 1", got)
	}
	if ss.wbOff != wbOff || ss.wbDirty != 0 {
		t.Fatalf("rewind accounting: wbOff=%d (want %d) wbDirty=%d", ss.wbOff, wbOff, ss.wbDirty)
	}
	// recA was never flushed; it must still read back (from the buffer) and
	// flush intact afterwards.
	readSegRecord(t, ss, locA, recA)
	if err := ss.syncDirty(); err != nil {
		t.Fatalf("syncDirty after rewind: %v", err)
	}
	readSegRecord(t, ss, locA, recA)
}

// TestWriteBehindConcurrentMaintenanceStress races buffered commits (durable
// through harden rounds, and nondurable) against the cleaner and the scrubber.
// Run with -race this checks the buffer's single-writer discipline: every
// maintenance path flushes under the store mutex before reading the log.
func TestWriteBehindConcurrentMaintenanceStress(t *testing.T) {
	env := newWBEnv(t)
	env.cfg.SegmentSize = 8 << 10 // frequent seals exercise buffer adoption
	env.cfg.DisableAutoClean = false
	env.cfg.DisableAutoCheckpoint = false
	env.cfg.CheckpointBytes = 32 << 10
	s, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	const committers = 4
	const rounds = 40
	cids := make([]ChunkID, committers)
	for i := range cids {
		if cids[i], err = s.AllocateChunkID(); err != nil {
			t.Fatalf("AllocateChunkID: %v", err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := s.NewBatch()
				b.Write(cids[i], []byte(fmt.Sprintf("w%d-r%03d-%s", i, r, bytes.Repeat([]byte("x"), 300))))
				if err := s.Commit(b, r%3 == 0); err != nil {
					errs[i] = fmt.Errorf("committer %d round %d: %w", i, r, err)
					return
				}
			}
		}(i)
	}
	stop := make(chan struct{})
	var maintErr error
	var maintWG sync.WaitGroup
	maintWG.Add(2)
	go func() {
		defer maintWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Clean(); err != nil {
				maintErr = fmt.Errorf("Clean: %w", err)
				return
			}
		}
	}()
	go func() {
		defer maintWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Scrub(); err != nil {
				maintErr = fmt.Errorf("Scrub: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	maintWG.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if maintErr != nil {
		t.Fatal(maintErr)
	}

	if err := s.Verify(); err != nil {
		t.Fatalf("Verify after stress: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close checkpointed durably; every committer's final value survives
	// reopen.
	s2, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for i, cid := range cids {
		want := []byte(fmt.Sprintf("w%d-r%03d-%s", i, rounds-1, bytes.Repeat([]byte("x"), 300)))
		if got, err := s2.Read(cid); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reopened Read(committer %d) = %.16q..., %v", i, got, err)
		}
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
}
