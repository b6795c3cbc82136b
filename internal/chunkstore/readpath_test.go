package chunkstore

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdb/internal/platform"
)

// TestReadMissOffMutexHappyPath checks the acceptance contract of the
// off-mutex read path: reads of chunks with resident map entries — point
// reads and batches alike — never take the exclusive lock. The shared-lock
// claim is asserted directly by reading while the test itself holds the
// store lock in shared mode — any exclusive acquisition would deadlock.
func TestReadMissOffMutexHappyPath(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
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
	batch := s.ReadBatch(ids[1:3])
	s.mu.RUnlock()
	if err != nil || !bytes.Equal(got, payloads[0]) {
		t.Fatalf("cold Read under shared lock: %q, %v", got, err)
	}
	for i, r := range batch {
		if r.Err != nil || !bytes.Equal(r.Data, payloads[i+1]) {
			t.Fatalf("cold ReadBatch under shared lock [%d]: %q, %v", i, r.Data, r.Err)
		}
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
	env := newTestEnv(t, "aes-gcm")
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
	env := newTestEnv(t, "aes-gcm")
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

	ps := []readPlan{{cid: victim}}
	s.mu.RLock()
	n, fault := s.planAllLocked(ps, false)
	s.mu.RUnlock()
	p := &ps[0]
	if n != 1 || fault || p.seg == nil {
		t.Fatalf("plan act: %d pinned, fault %v, done %v (%v)", n, fault, p.done, p.err)
	}
	seg := p.seg
	if got := seg.readers.Load(); got != 1 {
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

	// The execute act still succeeds against the pinned old segment — the
	// bytes are intact and validate — but the finish act must reject it.
	s.executeReads(ps, n)
	if p.err != nil {
		t.Fatalf("execute act against pinned segment: %v", p.err)
	}
	s.mu.RLock()
	suspect := s.finishLocked(ps)
	s.mu.RUnlock()
	if p.done || suspect {
		t.Fatalf("finish act accepted a stale snapshot: data=%q err=%v suspect=%v", p.data, p.err, suspect)
	}
	if got := seg.readers.Load(); got != 0 {
		t.Fatalf("segment pin count = %d after finish, want 0", got)
	}

	// The plan goes round again and lands on the relocated record.
	s.readPlans(ps)
	want := bytes.Repeat([]byte("V"), 256)
	if p.err != nil || !bytes.Equal(p.data, want) {
		t.Fatalf("retried plan after relocation: %q, %v", p.data, p.err)
	}
	got, err := s.Read(victim)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Read after relocation: %q, %v", got, err)
	}
}

// TestConcurrentReadsRaceCleaner hammers stable chunks from reader
// goroutines — two by point Read, two by ReadBatch — while the main
// goroutine rewrites churn chunks, adds fresh ones, and runs cleaner and
// checkpoint passes. Every read must return the exact stable payload —
// relocations mid-read must be caught by revalidation, never surfaced as
// wrong data or spurious errors. Under cache pressure the map-node budget is
// small enough that reads keep faulting map nodes in meanwhile.
func TestConcurrentReadsRaceCleaner(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheBytes int64
	}{{"resident", 0}, {"cache-pressure", 2 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t, "aes-gcm")
			env.cfg.SegmentSize = 4 << 10
			env.cfg.Fanout = 4
			env.cfg.CacheBytes = tc.cacheBytes
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
						if seed%2 == 1 {
							for j, r := range s.ReadBatch([]ChunkID{stable[idx], stable[(idx+1)%stableN]}) {
								if r.Err != nil || !bytes.Equal(r.Data, stablePayload((idx+j)%stableN)) {
									t.Errorf("ReadBatch(stable %d): %d bytes, %v", (idx+j)%stableN, len(r.Data), r.Err)
									return
								}
							}
							continue
						}
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
			// Forty rounds of churn; under cache pressure, more (up to 400)
			// until a reader has faulted a map node in, since the scheduler
			// may keep every reader off the CPU while a node is out.
			for round := 0; round < 40 || (tc.cacheBytes != 0 && round < 400 && s.Stats().ReadSlowPaths == 0); round++ {
				for i, cid := range churn {
					writeChunk(t, s, cid, bytes.Repeat([]byte{byte(round), byte(i)}, 150))
				}
				// A fresh chunk grows the map: its new nodes' registration sweeps
				// the ring, evicting clean nodes once the budget is exceeded.
				allocWrite(t, s, []byte{byte(round)})
				if err := s.Clean(); err != nil {
					t.Fatalf("Clean: %v", err)
				}
				if round%4 == 0 {
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
			if st := s.Stats(); tc.cacheBytes != 0 && st.ReadSlowPaths == 0 {
				t.Fatal("no map-node fault-ins under a 2 KiB map-node budget")
			}
		})
	}
}

func stablePayload(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("stable-%02d-", i)), 40)
}

// readHookStore wraps the segment files a store creates or opens so a test
// can observe every ReadAt they serve.
type readHookStore struct {
	platform.UntrustedStore
	onRead atomic.Pointer[func(name string, off int64)]
}

func (h *readHookStore) wrap(name string, f platform.File, err error) (platform.File, error) {
	if _, isSeg := parseSegmentName(name); err != nil || !isSeg {
		return f, err
	}
	return readHookFile{f, name, h}, nil
}

func (h *readHookStore) Create(name string) (platform.File, error) {
	f, err := h.UntrustedStore.Create(name)
	return h.wrap(name, f, err)
}

func (h *readHookStore) Open(name string) (platform.File, error) {
	f, err := h.UntrustedStore.Open(name)
	return h.wrap(name, f, err)
}

type readHookFile struct {
	platform.File
	name string
	h    *readHookStore
}

func (f readHookFile) ReadAt(p []byte, off int64) (int, error) {
	if fn := f.h.onRead.Load(); fn != nil {
		(*fn)(f.name, off)
	}
	return f.File.ReadAt(p, off)
}

// TestNonResidentReadDoesNoUserIOUnderLock pins that a read whose map node
// is not resident faults the node in under the exclusive lock but reads the
// chunk's record with no store lock held: the segment ReadAt at the
// record's offset finds the store mutex free (TryLock succeeds) on the one
// goroutine that is reading.
func TestNonResidentReadDoesNoUserIOUnderLock(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	hs := &readHookStore{UntrustedStore: env.cfg.Store}
	env.cfg.Store = hs
	env.cfg.Fanout = 4
	env.cfg.CacheBytes = 2 << 10
	s := env.open(t)
	defer s.Close()

	var ids []ChunkID
	for i := 0; i < 64; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 100)))
	}
	// Checkpointed map nodes are clean, so the tiny budget can evict them.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	victim := ids[0]
	s.mu.Lock()
	p, err := s.lm.descend(victim, 0, readPath)
	s.mu.Unlock()
	if err != nil || p.node == nil {
		t.Fatalf("descend(%d): %v", victim, err)
	}
	leaf, e := p.node, p.node.entries[p.slot]
	// Sweep the now-clean map back under budget until the victim's leaf is
	// evicted (the first pass may only clear its reference bit).
	s.mu.Lock()
	for i := 0; s.lm.resident(leaf); i++ {
		if i == 8 {
			s.mu.Unlock()
			t.Fatal("victim's leaf never evicted; test setup rotted")
		}
		s.lm.sweep(nil)
	}
	s.mu.Unlock()

	recordReads := 0
	hook := func(name string, off int64) {
		if name != segmentName(e.loc.Seg) || off != int64(e.loc.Off) {
			return
		}
		recordReads++
		if !s.mu.TryLock() {
			t.Errorf("chunk %d's record read with the store mutex held", victim)
			return
		}
		s.mu.Unlock()
	}
	hs.onRead.Store(&hook)
	slowBefore := s.Stats().ReadSlowPaths
	got, err := s.Read(victim)
	hs.onRead.Store(nil)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0}, 100)) {
		t.Fatalf("Read(%d): %q, %v", victim, got, err)
	}
	if recordReads != 1 {
		t.Fatalf("chunk %d's record was read %d times from its segment file, want 1", victim, recordReads)
	}
	if d := s.Stats().ReadSlowPaths - slowBefore; d != 1 {
		t.Fatalf("ReadSlowPaths rose by %d, want 1 fault-in", d)
	}
}

// TestPointReadAllocs pins the allocations of a point read whose map path
// is resident at exactly 2: the plan and its record buffer. The record is
// opened against its leaf in that buffer, in one AES-GCM pass that
// allocates neither a keystream nor a plaintext. A batch of one allocates
// none of ReadBatch's sorted ids, run slice or results, and does not count
// as a prefetch. The store is a plain MemStore: the fault-injecting test store
// formats its bookkeeping through fmt, whose pooled buffers make counts
// vary under the race detector.
func TestPointReadAllocs(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	env.cfg.Store = env.mem
	s := env.open(t)
	defer s.Close()
	want := bytes.Repeat([]byte("meter"), 100)
	cid := allocWrite(t, s, want)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		got, err := s.Read(cid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Read: %q, %v", got, err)
		}
	})
	if allocs != 2 {
		t.Errorf("a warm-map point read allocates %.0f objects, want 2", allocs)
	}
	st := s.Stats()
	if st.PrefetchedChunks != 0 || st.ReadSlowPaths != 0 {
		t.Errorf("point reads counted %d prefetched chunks and %d slow paths, want 0 and 0", st.PrefetchedChunks, st.ReadSlowPaths)
	}
}

// TestHeldAttemptReadsUnderSharedLock drives the last attempt of a read
// whose attempts all went stale: it reads the record holding the store
// mutex shared — never exclusively — finishes without retaking the lock,
// and counts as a slow path.
func TestHeldAttemptReadsUnderSharedLock(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	hs := &readHookStore{UntrustedStore: env.cfg.Store}
	env.cfg.Store = hs
	s := env.open(t)
	defer s.Close()
	want := []byte("a usage meter record")
	cid := allocWrite(t, s, want)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	reads := 0
	hook := func(string, int64) {
		reads++
		if s.mu.TryLock() {
			s.mu.Unlock()
			t.Error("held attempt read its record with the store mutex free")
		} else if !s.mu.TryRLock() {
			t.Error("held attempt read its record with the store mutex held exclusively")
		} else {
			s.mu.RUnlock()
		}
	}
	hs.onRead.Store(&hook)
	ps := []readPlan{{cid: cid}}
	done := s.readAttempt(ps, true)
	hs.onRead.Store(nil)
	p := &ps[0]
	if !done || p.err != nil || !bytes.Equal(p.data, want) {
		t.Fatalf("held attempt: done %v, %q, %v", done, p.data, p.err)
	}
	if reads != 1 {
		t.Fatalf("held attempt made %d segment reads, want 1", reads)
	}
	if got := s.Stats().ReadSlowPaths; got != 1 {
		t.Fatalf("ReadSlowPaths = %d after one held attempt, want 1", got)
	}
}
