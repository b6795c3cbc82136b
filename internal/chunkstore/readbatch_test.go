package chunkstore

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
)

// TestReadBatchCoalescesAdjacentRecords writes one multi-chunk batch — whose
// records land physically adjacent in the log — and checks that a batch
// read of the whole set merges runs into coalesced segment reads and
// returns every payload intact.
func TestReadBatchCoalescesAdjacentRecords(t *testing.T) {
	for _, suite := range []string{"aes-gcm", "aes-ctr-gmac", "aes-ctr-sha256", "null"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			s := env.open(t)
			defer s.Close()

			const n = 16
			var cids []ChunkID
			var payloads [][]byte
			b := s.NewBatch()
			for i := 0; i < n; i++ {
				cid, err := s.AllocateChunkID()
				if err != nil {
					t.Fatalf("AllocateChunkID: %v", err)
				}
				p := bytes.Repeat([]byte{byte(i + 1)}, 200)
				b.Write(cid, p)
				cids = append(cids, cid)
				payloads = append(payloads, p)
			}
			if err := s.Commit(b, true); err != nil {
				t.Fatalf("Commit: %v", err)
			}

			res := s.ReadBatch(cids)
			if len(res) != n {
				t.Fatalf("ReadBatch returned %d results, want %d", len(res), n)
			}
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("ReadBatch[%d]: %v", i, r.Err)
				}
				if !bytes.Equal(r.Data, payloads[i]) {
					t.Fatalf("ReadBatch[%d]: wrong data (%d bytes)", i, len(r.Data))
				}
			}
			st := s.Stats()
			if st.CoalescedReads < 1 {
				t.Fatalf("CoalescedReads = %d, want >= 1", st.CoalescedReads)
			}
			if st.CoalescedChunks < 2 {
				t.Fatalf("CoalescedChunks = %d, want >= 2", st.CoalescedChunks)
			}
			if st.PrefetchedChunks != n {
				t.Fatalf("PrefetchedChunks = %d, want %d", st.PrefetchedChunks, n)
			}
		})
	}
}

// TestReadBatchErrorsAndDuplicates checks the per-chunk error contract: a
// batch mixing live chunks, never-written ids, and duplicates reports each
// result independently without failing the batch.
func TestReadBatchErrorsAndDuplicates(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	s := env.open(t)
	defer s.Close()

	good := allocWrite(t, s, []byte("payload"))
	hole, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}

	if res := s.ReadBatch(nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	res := s.ReadBatch([]ChunkID{good, hole, good})
	if res[0].Err != nil || !bytes.Equal(res[0].Data, []byte("payload")) {
		t.Fatalf("res[0]: %q, %v", res[0].Data, res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrNotWritten) {
		t.Fatalf("res[1].Err = %v, want ErrNotWritten", res[1].Err)
	}
	if res[2].Err != nil || !bytes.Equal(res[2].Data, []byte("payload")) {
		t.Fatalf("res[2]: %q, %v", res[2].Data, res[2].Err)
	}
}

// TestReadBatchRetryOnCleanerRelocation drives the batch-scope relocation
// race by hand: a batch plans its snapshots, then the cleaner evacuates the
// planned segment and frees it. Every plan returns the exact committed
// bytes from the pinned, freed segment, whose handle stays open until the
// batch releases it, and a later ReadBatch lands on the relocated records.
func TestReadBatchRetryOnCleanerRelocation(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	hs := &readHookStore{UntrustedStore: env.cfg.Store}
	env.cfg.Store = hs
	env.cfg.SegmentSize = 4 << 10
	env.cfg.DisableAutoClean = true
	s := env.open(t)
	defer s.Close()

	// Two adjacent victims share their early segment with filler that is
	// then rewritten, making the segment cleanable.
	b := s.NewBatch()
	var victims []ChunkID
	for i := 0; i < 2; i++ {
		cid, err := s.AllocateChunkID()
		if err != nil {
			t.Fatalf("AllocateChunkID: %v", err)
		}
		b.Write(cid, bytes.Repeat([]byte{'V', byte(i)}, 128))
		victims = append(victims, cid)
	}
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	var filler []ChunkID
	for i := 0; i < 24; i++ {
		filler = append(filler, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 512)))
	}
	for _, cid := range filler {
		writeChunk(t, s, cid, bytes.Repeat([]byte("x"), 512))
	}

	ps := planRead(t, s, victims...)
	segs := map[*segment]bool{ps[0].seg: true, ps[1].seg: true}
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	for seg := range segs {
		if inSet(s, seg.num) {
			t.Fatalf("cleaner did not free planned segment %d; test setup rotted", seg.num)
		}
		if c := hs.closeCount(segmentName(seg.num)); c != 0 {
			t.Fatalf("freed segment %d closed %d times while the batch held it", seg.num, c)
		}
	}

	s.readPlans(&arena{plans: ps})
	for i := range ps {
		want := bytes.Repeat([]byte{'V', byte(i)}, 128)
		if ps[i].err != nil || !bytes.Equal(ps[i].data, want) {
			t.Fatalf("plan %d planned before the relocation: %q, %v", i, ps[i].data, ps[i].err)
		}
	}
	for seg := range segs {
		if c, refs := hs.closeCount(segmentName(seg.num)), seg.refs.Load(); c != 1 || refs != 0 {
			t.Fatalf("after the batch released it, freed segment %d was closed %d times with %d references, want 1 and 0", seg.num, c, refs)
		}
	}
	for i, r := range s.ReadBatch(victims) {
		if want := bytes.Repeat([]byte{'V', byte(i)}, 128); r.Err != nil || !bytes.Equal(r.Data, want) {
			t.Fatalf("ReadBatch after relocation [%d]: %q, %v", i, r.Data, r.Err)
		}
	}
}

// TestReadBatchReadsChunkAnotherReaderHasInFlight pins that a batch reads
// every chunk it is given: a chunk a point Read is still fetching comes back
// with its payload, not skipped, so every result carries data or an error.
func TestReadBatchReadsChunkAnotherReaderHasInFlight(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	hs := &readHookStore{UntrustedStore: env.cfg.Store}
	env.cfg.Store = hs
	s := env.open(t)
	defer s.Close()
	want := []byte("a usage meter record")
	cid := allocWrite(t, s, want)
	// Flush the record out of the write-behind buffer so reads fetch it
	// from the segment file.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// Park the first segment read — the point Read's — until the batch is
	// done; later reads pass through.
	var first atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	hook := func(string, int64) {
		if first.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	}
	hs.onRead.Store(&hook)
	defer hs.onRead.Store(nil)
	type result struct {
		data []byte
		err  error
	}
	point := make(chan result, 1)
	go func() {
		data, err := s.Read(cid)
		point <- result{data, err}
	}()
	<-parked
	res := s.ReadBatch([]ChunkID{cid})
	close(release)
	if r := <-point; r.err != nil || !bytes.Equal(r.data, want) {
		t.Fatalf("parked point Read: %q, %v", r.data, r.err)
	}
	if res[0].Err != nil || !bytes.Equal(res[0].Data, want) {
		t.Fatalf("ReadBatch beside an in-flight Read: %q, %v", res[0].Data, res[0].Err)
	}
}
