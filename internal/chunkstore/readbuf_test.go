package chunkstore

import (
	"bytes"
	"errors"
	"testing"

	"tdb/internal/sec"
)

// The read path reads each record into one buffer and decrypts it there
// (read.go). These tests pin what that buffer may and may not be: never the
// write-behind buffer, never shared between two results, and never more
// allocation than the record needs.

// writeBatch commits one batch that writes payload(i) to n fresh chunks,
// whose records land adjacent in the log, and returns their ids.
func writeBatch(t *testing.T, s *Store, n int, durable bool, payload func(i int) []byte) []ChunkID {
	t.Helper()
	cids := make([]ChunkID, n)
	b := s.NewBatch()
	for i := range cids {
		cid, err := s.AllocateChunkID()
		if err != nil {
			t.Fatalf("AllocateChunkID: %v", err)
		}
		cids[i] = cid
		b.Write(cid, payload(i))
	}
	if err := s.Commit(b, durable); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return cids
}

// kibPayload is a 1 KiB payload distinct per i.
func kibPayload(i int) []byte { return bytes.Repeat([]byte{byte(i + 1), byte(i * 7)}, 512) }

// flushPrefixLocked writes the first n bytes of the tail's write-behind
// buffer to its file and keeps the rest buffered — a flush that stopped
// part-way through a record, so that record lies partly in the file and
// partly in the buffer. The tail's file must exist. Caller holds s.mu.
func flushPrefixLocked(t *testing.T, s *Store, n int) {
	t.Helper()
	ss, seg := s.segs, s.segs.tail
	if err := ss.writeAt(seg, seg.buf[:n], seg.flushed); err != nil {
		t.Fatalf("partial flush: %v", err)
	}
	seg.flushed += int64(n)
	ss.buffered -= int64(n)
	seg.buf = append(seg.buf[:0], seg.buf[n:]...)
}

// TestReadWriteBehindRecordsIntact reads records lying wholly in the
// write-behind buffer, one lying partly in it, and runs of flushed records
// beside them, by point reads and batches. The reads decrypt in place, so a
// read that decrypted the write-behind buffer itself would flush plaintext:
// the flushed log must still verify and reread byte-exact after a reopen.
func TestReadWriteBehindRecordsIntact(t *testing.T) {
	for _, suite := range []string{"aes-gcm", "aes-ctr-gmac", "aes-ctr-sha256", "3des-sha1", "null"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			env.cfg.SegmentSize = 1 << 20
			s := env.open(t)
			flushed := writeBatch(t, s, 8, true, kibPayload)
			buffered := writeBatch(t, s, 8, false, func(i int) []byte { return kibPayload(i + 8) })
			cids := append(append([]ChunkID(nil), flushed...), buffered...)

			s.mu.Lock()
			if len(s.segs.tail.buf) == 0 || s.segs.tail.file == nil {
				s.mu.Unlock()
				t.Fatal("the nondurable batch's records are not in the write-behind buffer")
			}
			// Leave the first buffered record straddling the flushed size.
			flushPrefixLocked(t, s, 100)
			s.mu.Unlock()

			check := func(when string) {
				t.Helper()
				for round := 0; round < 2; round++ {
					for i, r := range s.ReadBatch(cids) {
						if r.Err != nil || !bytes.Equal(r.Data, kibPayload(i)) {
							t.Fatalf("%s: ReadBatch[%d] = %d bytes, %v", when, i, len(r.Data), r.Err)
						}
					}
					for i, cid := range cids {
						if got, err := s.Read(cid); err != nil || !bytes.Equal(got, kibPayload(i)) {
							t.Fatalf("%s: Read(%d) = %d bytes, %v", when, cid, len(got), err)
						}
					}
				}
			}
			check("buffered")
			if err := s.Commit(s.NewBatch(), true); err != nil {
				t.Fatalf("durable commit: %v", err)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("Verify after the flush: %v", err)
			}
			check("flushed")
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s = env.open(t)
			defer s.Close()
			if err := s.Verify(); err != nil {
				t.Fatalf("Verify after reopen: %v", err)
			}
			check("reopened")
		})
	}
}

// TestReadBatchResultsDoNotAlias overwrites one result of a coalesced run —
// within its length and past it by append — and checks that its neighbours
// in the run and a fresh read of the chunk are unchanged.
func TestReadBatchResultsDoNotAlias(t *testing.T) {
	for _, suite := range []string{"aes-gcm", "aes-ctr-gmac", "aes-ctr-sha256", "3des-sha1", "null"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			env.cfg.SegmentSize = 1 << 20
			s := env.open(t)
			defer s.Close()
			cids := writeBatch(t, s, 8, true, kibPayload)
			before := s.Stats().CoalescedReads
			res := s.ReadBatch(cids)
			if s.Stats().CoalescedReads == before {
				t.Fatal("the batch read no coalesced run")
			}
			const victim = 3
			clear(res[victim].Data)
			grown := append(res[victim].Data, bytes.Repeat([]byte{0xff}, 4096)...)
			grown[0] = 0xee
			for i, r := range res {
				if i == victim {
					continue
				}
				if r.Err != nil || !bytes.Equal(r.Data, kibPayload(i)) {
					t.Fatalf("neighbour %d changed after result %d was overwritten: %d bytes, %v", i, victim, len(r.Data), r.Err)
				}
			}
			if got, err := s.Read(cids[victim]); err != nil || !bytes.Equal(got, kibPayload(victim)) {
				t.Fatalf("reread of the overwritten chunk: %d bytes, %v", len(got), err)
			}
			for i, r := range s.ReadBatch(cids) {
				if r.Err != nil || !bytes.Equal(r.Data, kibPayload(i)) {
					t.Fatalf("batch reread [%d]: %d bytes, %v", i, len(r.Data), r.Err)
				}
			}
		})
	}
}

// TestReadBatchAllocs pins the allocations of a warm batch read of 64
// adjacent 1 KiB chunks, one coalesced run. VisitBatch allocates exactly 2:
// the sorted ids the batch dedupes and maps results back through, and the
// run's slice of plan pointers; its plans and its buffer are lent by the
// store's arena list. ReadBatch, which copies its results out of
// VisitBatch, allocates exactly 67: the results, those 2, and one copy per
// result. Opening the records allocates nothing, under aes-gcm or under the
// null suite, whose leaf check hashes into an array on the stack. The race
// detector makes sync.Pool drop pooled objects at random, so under it
// counts vary and only the I/O is checked.
func TestReadBatchAllocs(t *testing.T) {
	for _, suite := range []string{"aes-gcm", "null"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			env.cfg.Store = env.mem
			env.cfg.SegmentSize = 1 << 20
			s := env.open(t)
			defer s.Close()
			cids := writeBatch(t, s, 64, true, kibPayload)
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			reads := s.Stats().CoalescedReads
			const runs = 100
			batch := testing.AllocsPerRun(runs, func() {
				for i, r := range s.ReadBatch(cids) {
					if r.Err != nil || len(r.Data) != 1024 {
						t.Fatalf("ReadBatch[%d]: %d bytes, %v", i, len(r.Data), r.Err)
					}
				}
			})
			visit := testing.AllocsPerRun(runs, func() {
				s.VisitBatch(cids, func(i int, data []byte, err error) {
					if err != nil || len(data) != 1024 {
						t.Fatalf("VisitBatch[%d]: %d bytes, %v", i, len(data), err)
					}
				})
			})
			if got := s.Stats().CoalescedReads - reads; got != 2*(runs+1) {
				t.Fatalf("%d batch reads paid %d coalesced reads, want one each", 2*(runs+1), got)
			}
			if !raceDetector && (batch != 3+64 || visit != 2) {
				t.Errorf("a warm 64-chunk batch read allocates %.0f objects through ReadBatch and %.0f through VisitBatch, want 67 and 2", batch, visit)
			}
		})
	}
}

// TestReadVisitBatchMatchesReadBatch reads one id list through ReadBatch
// and VisitBatch: flushed runs, records partly and wholly in the
// write-behind buffer, a record larger than coalesceMax, duplicates, and
// ids never written or never allocated. VisitBatch visits every index once,
// in order, with ReadBatch's bytes or error. A batch that holds the large
// record reads into a buffer of its own; one of the flushed records
// borrows an arena's. Afterwards the store's arena list keeps 1 to
// arenaKeep arenas, none with a buffer larger than a full run and its
// slack, and zeroed plans only, over their whole capacity.
func TestReadVisitBatchMatchesReadBatch(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	env.cfg.SegmentSize = 4 << 20
	s := env.open(t)
	defer s.Close()
	big := bytes.Repeat([]byte("L"), coalesceMax+100)
	cids := writeBatch(t, s, 8, true, kibPayload)
	cids = append(cids, allocWrite(t, s, big))
	cids = append(cids, writeBatch(t, s, 4, false, kibPayload)...)
	s.mu.Lock()
	flushPrefixLocked(t, s, 100)
	s.mu.Unlock()
	unwritten, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	cids = append(cids, cids[2], unwritten, unwritten+1000, cids[0])

	for round := 0; round < 3; round++ {
		want := s.ReadBatch(cids)
		next := 0
		s.VisitBatch(cids, func(i int, data []byte, err error) {
			if i != next {
				t.Fatalf("visit %d came after %d", i, next-1)
			}
			next++
			w := want[i]
			if !bytes.Equal(data, w.Data) || (err == nil) != (w.Err == nil) ||
				errors.Is(err, ErrNotWritten) != errors.Is(w.Err, ErrNotWritten) ||
				errors.Is(err, ErrNotAllocated) != errors.Is(w.Err, ErrNotAllocated) {
				t.Fatalf("round %d: VisitBatch[%d] = %d bytes, %v; ReadBatch gave %d bytes, %v", round, i, len(data), err, len(w.Data), w.Err)
			}
		})
		if next != len(cids) {
			t.Fatalf("VisitBatch visited %d of %d indexes", next, len(cids))
		}
		if want[8].Err != nil || !bytes.Equal(want[8].Data, big) || !errors.Is(want[len(cids)-3].Err, ErrNotWritten) || !errors.Is(want[len(cids)-2].Err, ErrNotAllocated) {
			t.Fatalf("ReadBatch: large record %d bytes, %v; unwritten %v; unallocated %v", len(want[8].Data), want[8].Err, want[len(cids)-3].Err, want[len(cids)-2].Err)
		}
	}

	s.VisitBatch(cids[:8], func(i int, data []byte, err error) {
		if err != nil || !bytes.Equal(data, kibPayload(i)) {
			t.Fatalf("VisitBatch[%d] = %d bytes, %v", i, len(data), err)
		}
	})
	l := &s.arenas
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) == 0 || len(l.free) > arenaKeep {
		t.Fatalf("the arena list keeps %d arenas, want 1 to %d", len(l.free), arenaKeep)
	}
	for _, a := range l.free {
		if cap(a.buf) > coalesceMax+sec.OpenSlack {
			t.Fatalf("the arena list keeps a %d-byte buffer, past a full run's %d", cap(a.buf), coalesceMax+sec.OpenSlack)
		}
		for _, p := range a.plans[:cap(a.plans)] {
			if p.seg != nil || p.buf != nil || p.ct != nil || p.data != nil || p.e.hash != nil || p.err != nil || p.done {
				t.Fatalf("the arena list keeps a plan that was not zeroed: %+v", p)
			}
		}
	}
}
