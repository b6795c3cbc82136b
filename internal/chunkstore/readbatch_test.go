package chunkstore

import (
	"bytes"
	"errors"
	"testing"
)

// TestReadBatchCoalescesAdjacentRecords writes one multi-chunk batch — whose
// records land physically adjacent in the log — and checks that a batch
// read of the whole set merges runs into coalesced segment reads and
// returns every payload intact.
func TestReadBatchCoalescesAdjacentRecords(t *testing.T) {
	for _, suite := range []string{"aes-ctr-sha256", "null"} {
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
	env := newTestEnv(t, "aes-ctr-sha256")
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
// race by hand: a batch plans its snapshots, the cleaner then evacuates the
// planned segment, and every completed plan must fail revalidation and fall
// back to the point-read path — returning the relocated bytes, never the
// stale ones, and never leaking a segment pin.
func TestReadBatchRetryOnCleanerRelocation(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-sha256")
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

	res := make([]BatchRead, len(victims))
	for i, cid := range victims {
		res[i].CID = cid
	}
	plans, planIdxs, slow := s.planBatch([]int{0, 1}, res)
	if len(plans) != 2 || len(slow) != 0 {
		t.Fatalf("planBatch: %d plans, %d slow; want 2, 0", len(plans), len(slow))
	}

	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}

	for _, task := range coalescePlans(plans, planIdxs) {
		s.runBatchTask(task, res)
	}
	for i, r := range res {
		want := bytes.Repeat([]byte{'V', byte(i)}, 128)
		if r.Err != nil || !bytes.Equal(r.Data, want) {
			t.Fatalf("res[%d] after relocation: %q, %v", i, r.Data, r.Err)
		}
	}
	for _, p := range plans {
		if got := p.seg.readers.Load(); got != 0 {
			t.Fatalf("segment pin count = %d after batch, want 0", got)
		}
	}
}

// TestReadBatchSkipsChunksAlreadyInFlight pins the dedupe contract: a chunk
// some other reader is already fetching is skipped by the batch (nil data,
// nil error — the concurrent reader will publish it), while the rest of the
// batch proceeds, and the batch's own flights are released so later readers
// are not blocked.
func TestReadBatchSkipsChunksAlreadyInFlight(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-sha256")
	s := env.open(t)
	defer s.Close()

	busy := allocWrite(t, s, []byte("busy"))
	free := allocWrite(t, s, []byte("free"))

	// Simulate a concurrent reader mid-fetch of busy.
	f := s.flights.tryClaim(busy)
	if f == nil {
		t.Fatal("tryClaim(busy) failed with no reader active")
	}

	res := s.ReadBatch([]ChunkID{busy, free})
	if res[0].Data != nil || res[0].Err != nil {
		t.Fatalf("in-flight chunk not skipped: %q, %v", res[0].Data, res[0].Err)
	}
	if res[1].Err != nil || !bytes.Equal(res[1].Data, []byte("free")) {
		t.Fatalf("free chunk: %q, %v", res[1].Data, res[1].Err)
	}

	// The batch released its claim on free: a fresh claim must succeed.
	if f2 := s.flights.tryClaim(free); f2 == nil {
		t.Fatal("free's flight still registered after the batch completed")
	} else {
		s.flights.abandon(free, f2)
	}

	// Once the simulated reader abandons, busy is readable point-wise.
	s.flights.abandon(busy, f)
	if data, err := s.Read(busy); err != nil || !bytes.Equal(data, []byte("busy")) {
		t.Fatalf("Read(busy) after abandon: %q, %v", data, err)
	}
}
