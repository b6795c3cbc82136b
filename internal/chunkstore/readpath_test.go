package chunkstore

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestReadMissOffMutexHappyPath checks the acceptance contract of the
// off-mutex read path: cache-miss reads of chunks with resident map entries
// never fall back to the exclusive lock. The shared-lock claim is asserted
// directly by performing a cold read while the test itself holds the store
// lock in shared mode — any exclusive acquisition would deadlock.
func TestReadMissOffMutexHappyPath(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-sha256")
	s := env.open(t)
	defer s.Close()

	const n = 32
	var ids []ChunkID
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 512)
		ids = append(ids, allocWrite(t, s, p))
		payloads = append(payloads, p)
	}

	s.mu.RLock()
	got, err := s.Read(ids[0])
	s.mu.RUnlock()
	if err != nil || !bytes.Equal(got, payloads[0]) {
		t.Fatalf("cold Read under shared lock: %q, %v", got, err)
	}

	for i, cid := range ids {
		got, err := s.Read(cid)
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("cold Read(%d): %v", cid, err)
		}
	}
	st := s.Stats()
	if st.ReadSlowPaths != 0 {
		t.Fatalf("ReadSlowPaths = %d after warm-map cache misses, want 0", st.ReadSlowPaths)
	}
}

// TestStatsUnderSharedLock pins that Stats needs only the shared lock, so a
// stats poller neither waits for nor holds up the off-mutex readers: it must
// return while the test holds mu.RLock, as a reader in its plan or finish
// act does.
func TestStatsUnderSharedLock(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-sha256")
	s := env.open(t)
	defer s.Close()
	allocWrite(t, s, []byte("a usage meter record"))

	done := make(chan Stats, 1)
	s.mu.RLock()
	go func() { done <- s.Stats() }()
	select {
	case st := <-done:
		s.mu.RUnlock()
		if st.Chunks != 1 {
			t.Fatalf("Stats under a shared lock reports %d chunks, want 1", st.Chunks)
		}
	case <-time.After(2 * time.Second):
		s.mu.RUnlock()
		<-done
		t.Fatal("Stats blocked while a reader held the shared lock")
	}
}

// TestReadRetryOnCleanerRelocation drives the relocation race by hand: a
// read plans its snapshot, the cleaner then evacuates the chunk's segment,
// and the completed off-lock read must fail revalidation (stale epoch and
// moved entry) rather than publish a result computed from the old record.
func TestReadRetryOnCleanerRelocation(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-sha256")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.DisableAutoClean = true
	s := env.open(t)
	defer s.Close()

	// The victim chunk shares its early segment with filler chunks; the
	// filler is then rewritten so the segment accumulates garbage and more
	// segments open, making it cleanable (non-tail, garbage present).
	victim := allocWrite(t, s, bytes.Repeat([]byte("V"), 256))
	var filler []ChunkID
	for i := 0; i < 24; i++ {
		filler = append(filler, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 512)))
	}
	for _, cid := range filler {
		writeChunk(t, s, cid, bytes.Repeat([]byte("x"), 512))
	}

	locBefore := func() Location {
		s.mu.Lock()
		defer s.mu.Unlock()
		e, err := s.lm.get(victim)
		if err != nil {
			t.Fatalf("lm.get: %v", err)
		}
		return e.loc
	}()

	p, err := s.planRead(victim)
	if err != nil || p == nil {
		t.Fatalf("planRead: %v, plan=%v", err, p)
	}
	if got := p.seg.readers.Load(); got != 1 {
		t.Fatalf("segment pin count = %d after plan, want 1", got)
	}

	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	locAfter := func() Location {
		s.mu.Lock()
		defer s.mu.Unlock()
		e, err := s.lm.get(victim)
		if err != nil {
			t.Fatalf("lm.get: %v", err)
		}
		return e.loc
	}()
	if locAfter == locBefore {
		t.Fatalf("cleaner did not relocate the victim (loc %v); test setup rotted", locBefore)
	}

	// The off-lock half still succeeds against the pinned old segment —
	// the bytes are intact and validate — but revalidation must reject it.
	plain, rerr := s.executeRead(p)
	if rerr != nil {
		t.Fatalf("executeRead against pinned segment: %v", rerr)
	}
	data, ferr, done := s.finishRead(p, plain, rerr)
	if done {
		t.Fatalf("finishRead accepted a stale snapshot: data=%q err=%v", data, ferr)
	}
	if got := p.seg.readers.Load(); got != 0 {
		t.Fatalf("segment pin count = %d after finish, want 0", got)
	}

	// The retry (a full Read) lands on the relocated record.
	got, err := s.Read(victim)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte("V"), 256)) {
		t.Fatalf("Read after relocation: %q, %v", got, err)
	}
}

// TestReadFlightsStaleInvalidation exercises the singleflight coherence
// protocol: a commit-side invalidation while a flight is in progress must
// make followers discard the shared result and retry, while the leader
// keeps the result it revalidated itself.
func TestReadFlightsStaleInvalidation(t *testing.T) {
	rf := newReadFlights()
	const cid = ChunkID(7)
	f := rf.tryClaim(cid)
	if f == nil {
		t.Fatal("tryClaim failed with no flight registered")
	}
	if rf.tryClaim(cid) != nil {
		t.Fatal("second tryClaim succeeded while the leader's flight is registered")
	}

	followerDone := make(chan struct{})
	var followerOK bool
	go func() {
		defer close(followerDone)
		// The leader has not completed, so the flight is still registered:
		// this call joins it.
		_, _, followerOK = rf.follow(cid)
	}()
	// Wait for the join before invalidating and completing the flight, so
	// the follower provably observes a mid-flight staling.
	sh := rf.shard(cid)
	for {
		sh.mu.Lock()
		joined := f.waiters
		sh.mu.Unlock()
		if joined == 1 {
			break
		}
		runtime.Gosched()
	}

	// The leader completes with the result it read; staling the flight
	// does not take that result away from it.
	rf.invalidate(cid)
	rf.complete(cid, f, []byte("old"), nil)
	<-followerDone

	if !f.stale || string(f.data) != "old" {
		t.Fatalf("leader's flight = (%q, stale=%v), want its own result, staled", f.data, f.stale)
	}
	if followerOK {
		t.Fatal("follower did not observe the mid-flight invalidation")
	}
	// The flight is gone: there is nothing to follow, and a fresh claim
	// makes a new leader.
	if _, _, ok := rf.follow(cid); ok {
		t.Fatal("follow succeeded with no flight registered")
	}
	f2 := rf.tryClaim(cid)
	if f2 == nil {
		t.Fatal("post-flight tryClaim failed")
	}
	rf.complete(cid, f2, []byte("new"), nil)
}

// TestConcurrentReadsRaceCleaner hammers stable chunks from reader
// goroutines while the main goroutine rewrites churn chunks and runs
// cleaner and checkpoint passes. Every read must
// return the exact stable payload — relocations mid-read must be caught by
// revalidation, never surfaced as wrong data or spurious errors.
func TestConcurrentReadsRaceCleaner(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-sha256")
	env.cfg.SegmentSize = 4 << 10
	s := env.open(t)
	defer s.Close()

	const stableN, churnN = 8, 8
	var stable, churn []ChunkID
	for i := 0; i < stableN; i++ {
		stable = append(stable, allocWrite(t, s, stablePayload(i)))
	}
	for i := 0; i < churnN; i++ {
		churn = append(churn, allocWrite(t, s, bytes.Repeat([]byte{0xee}, 300)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := (i + seed) % stableN
				got, err := s.Read(stable[idx])
				if err != nil {
					t.Errorf("Read(stable %d): %v", idx, err)
					return
				}
				if !bytes.Equal(got, stablePayload(idx)) {
					t.Errorf("Read(stable %d): wrong data (%d bytes)", idx, len(got))
					return
				}
			}
		}(r)
	}
	for round := 0; round < 40; round++ {
		for i, cid := range churn {
			writeChunk(t, s, cid, bytes.Repeat([]byte{byte(round), byte(i)}, 150))
		}
		if err := s.Clean(); err != nil {
			t.Fatalf("Clean: %v", err)
		}
		if round%8 == 0 {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify after read/clean race: %v", err)
	}
}

func stablePayload(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("stable-%02d-", i)), 40)
}
