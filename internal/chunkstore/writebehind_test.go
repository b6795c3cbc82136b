package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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

// TestWriteBehindFailedFlushKeepsBytesBuffered pins lazy segment creation
// and the failed flush: records that roll the log into new segments between
// flush points create no file, a flush that fails at a segment's Create
// leaves that segment and every later one buffered and uncreated (files are
// created in number order), and every record still reads back. The retried
// flush creates the files — replacing a stale file of segment 2's number,
// which only a create that failed after the file appeared could leave —
// and writes each segment's header and records in one WriteAt.
func TestWriteBehindFailedFlushKeepsBytesBuffered(t *testing.T) {
	mem := platform.NewMemStore()
	meter := platform.NewMeterStore(mem)
	fs := platform.NewFaultStore(meter)
	ss := newSegmentSet(fs, RetryPolicy{MaxAttempts: 1, Sleep: func(time.Duration) {}})
	const segmentSize = 1 << 10

	recA, recB, recC, recD := segRecord('A', 100), segRecord('B', 200), segRecord('C', 900), segRecord('D', 900)
	locA := ss.append(recA, segmentSize)
	if err := ss.flushLocked(); err != nil {
		t.Fatalf("flushLocked: %v", err)
	}
	before := meter.Stats().Snapshot()
	locB := ss.append(recB, segmentSize)
	locC := ss.append(recC, segmentSize) // rolls to segment 2
	locD := ss.append(recD, segmentSize) // rolls to segment 3
	if d := meter.Stats().Snapshot().Sub(before); d != (platform.IOCounts{}) {
		t.Fatalf("appends that rolled the log touched the device: %+v", d)
	}
	if locC.Seg != 2 || locD.Seg != 3 {
		t.Fatalf("test premise: records in segments %d and %d, want 2 and 3", locC.Seg, locD.Seg)
	}
	files := func() []string {
		t.Helper()
		names, err := mem.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		return names
	}
	if names := files(); slices.Contains(names, segmentName(2)) || slices.Contains(names, segmentName(3)) {
		t.Fatalf("segments rolled to between flush points have files: %v", names)
	}
	readAll := func() {
		t.Helper()
		readSegRecord(t, ss, locA, recA)
		readSegRecord(t, ss, locB, recB)
		readSegRecord(t, ss, locC, recC)
		readSegRecord(t, ss, locD, recD)
	}

	// The first operation, segment 1's WriteAt, succeeds; segment 2's
	// Create fails.
	fs.SetWriteBudget(1)
	if err := ss.flushLocked(); err == nil {
		t.Fatal("flush on a crashing device succeeded")
	}
	fs.SetWriteBudget(-1)
	seg1, seg2, seg3 := ss.segs[1], ss.segs[2], ss.segs[3]
	if len(seg1.buf) != 0 || seg1.flushed != seg1.size {
		t.Fatalf("segment 1 after its WriteAt: %d bytes buffered, %d of %d flushed", len(seg1.buf), seg1.flushed, seg1.size)
	}
	if seg2.file != nil || seg3.file != nil || len(ss.unflushed) != 2 ||
		ss.buffered != seg2.size+seg3.size || int64(len(seg2.buf)) != seg2.size || int64(len(seg3.buf)) != seg3.size {
		t.Fatalf("segments 2 and 3 after the failed Create: files %v/%v, %d unflushed, %d buffered of %d+%d",
			seg2.file != nil, seg3.file != nil, len(ss.unflushed), ss.buffered, seg2.size, seg3.size)
	}
	if names := files(); slices.Contains(names, segmentName(2)) || slices.Contains(names, segmentName(3)) {
		t.Fatalf("a failed flush left files: %v", names)
	}
	readAll()

	stale, err := mem.Create(segmentName(2))
	if err != nil {
		t.Fatalf("Create(stale): %v", err)
	}
	if _, err := stale.WriteAt(bytes.Repeat([]byte{0xee}, 4096), 0); err != nil {
		t.Fatalf("WriteAt(stale): %v", err)
	}
	stale.Close()
	before = meter.Stats().Snapshot()
	if err := ss.syncDirty(); err != nil {
		t.Fatalf("syncDirty: %v", err)
	}
	if d := meter.Stats().Snapshot().Sub(before); d.WriteOps != 2 || d.BytesWritten != seg2.size+seg3.size {
		t.Fatalf("the retried flush cost %+v, want one WriteAt per segment, %d bytes", d, seg2.size+seg3.size)
	}
	if ss.buffered != 0 || len(ss.unflushed) != 0 {
		t.Fatalf("after the retried flush: %d bytes buffered in %d segments", ss.buffered, len(ss.unflushed))
	}
	if size, err := seg2.file.Size(); err != nil || size != seg2.size {
		t.Fatalf("segment 2's file holds %d bytes (%v), want its %d: the stale file was not replaced", size, err, seg2.size)
	}
	readAll()
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
