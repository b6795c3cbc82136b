package chunkstore

import (
	"bytes"
	"testing"
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

// flushPrefixLocked writes the first n bytes of the write-behind buffer to
// the file and keeps the rest buffered — a flush that stopped part-way
// through a record, so that record lies partly in the file and partly in
// the buffer. Caller holds s.mu.
func flushPrefixLocked(t *testing.T, s *Store, n int) {
	t.Helper()
	ss := s.segs
	if err := ss.writeAt(ss.wbSeg, ss.wb[:n], ss.wbOff); err != nil {
		t.Fatalf("partial flush: %v", err)
	}
	ss.wbOff += int64(n)
	ss.wb = append(ss.wb[:0], ss.wb[n:]...)
}

// TestReadWriteBehindRecordsIntact reads records lying wholly in the
// write-behind buffer, one lying partly in it, and runs of flushed records
// beside them, by point reads and batches. The reads decrypt in place, so a
// read that decrypted the write-behind buffer itself would flush plaintext:
// the flushed log must still verify and reread byte-exact after a reopen.
func TestReadWriteBehindRecordsIntact(t *testing.T) {
	for _, suite := range []string{"aes-ctr-gmac", "aes-ctr-sha256", "3des-sha1", "null"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			env.cfg.SegmentSize = 1 << 20
			s := env.open(t)
			flushed := writeBatch(t, s, 8, true, kibPayload)
			buffered := writeBatch(t, s, 8, false, func(i int) []byte { return kibPayload(i + 8) })
			cids := append(append([]ChunkID(nil), flushed...), buffered...)

			s.mu.Lock()
			if len(s.segs.wb) == 0 {
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
	for _, suite := range []string{"aes-ctr-gmac", "aes-ctr-sha256", "3des-sha1", "null"} {
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
// adjacent 1 KiB chunks, one coalesced run: the run's buffer is the only
// record buffer, and neither the digest check (each digest lands in its
// plan's own room) nor decryption allocates. The race detector makes
// sync.Pool drop pooled objects at random, so under it counts vary and only
// the I/O is checked.
func TestReadBatchAllocs(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-gmac")
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
	allocs := testing.AllocsPerRun(runs, func() {
		for i, r := range s.ReadBatch(cids) {
			if r.Err != nil || len(r.Data) != 1024 {
				t.Fatalf("ReadBatch[%d]: %d bytes, %v", i, len(r.Data), r.Err)
			}
		}
	})
	if got := s.Stats().CoalescedReads - reads; got != runs+1 {
		t.Fatalf("%d batch reads paid %d coalesced reads, want one each", runs+1, got)
	}
	if !raceDetector && allocs != 135 {
		t.Errorf("a warm 64-chunk batch read allocates %.0f objects, want 135", allocs)
	}
}
