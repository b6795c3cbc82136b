package chunkstore

import (
	"bytes"
	"errors"
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

// cleanableVictim writes a 256-byte victim chunk into an early segment and
// fills the segment with chunks that are then rewritten, so the segment
// accumulates garbage and more segments open, making it cleanable
// (non-tail, garbage present). Commits are durable unless nondurable is set.
func cleanableVictim(t *testing.T, s *Store, fill byte, nondurable bool) (ChunkID, []byte) {
	t.Helper()
	commit := func(cid ChunkID, data []byte) {
		b := s.NewBatch()
		b.Write(cid, data)
		if err := s.Commit(b, !nondurable); err != nil {
			t.Fatalf("Commit(write %d): %v", cid, err)
		}
	}
	alloc := func() ChunkID {
		cid, err := s.AllocateChunkID()
		if err != nil {
			t.Fatalf("AllocateChunkID: %v", err)
		}
		return cid
	}
	want := bytes.Repeat([]byte{fill}, 256)
	victim := alloc()
	commit(victim, want)
	var filler []ChunkID
	for i := 0; i < 24; i++ {
		cid := alloc()
		commit(cid, bytes.Repeat([]byte{byte(i)}, 512))
		filler = append(filler, cid)
	}
	for _, cid := range filler {
		commit(cid, bytes.Repeat([]byte("x"), 512))
	}
	return victim, want
}

// planRead runs the plan act for cids under the shared lock and requires
// every plan pinned.
func planRead(t *testing.T, s *Store, cids ...ChunkID) []readPlan {
	t.Helper()
	ps := make([]readPlan, len(cids))
	for i, cid := range cids {
		ps[i].cid = cid
	}
	s.mu.RLock()
	n, fault := s.planAllLocked(ps, false)
	s.mu.RUnlock()
	if n != len(cids) || fault {
		t.Fatalf("plan act: %d of %d pinned, fault %v", n, len(cids), fault)
	}
	return ps
}

// inSet reports whether segment num is still in the store's segment set.
func inSet(s *Store, num uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.segs.segs[num]
	return ok
}

// TestReadRetryOnCleanerRelocation drives the relocation race by hand: a
// read plans its snapshot, then the cleaner evacuates the chunk's segment
// and frees it. The read is linearized at its plan act: it returns the
// exact committed bytes from the pinned, freed segment, whose handle stays
// open until the read releases it, and a later Read lands on the relocated
// record.
func TestReadRetryOnCleanerRelocation(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	hs := &readHookStore{UntrustedStore: env.cfg.Store}
	env.cfg.Store = hs
	env.cfg.SegmentSize = 4 << 10
	env.cfg.DisableAutoClean = true
	s := env.open(t)
	defer s.Close()

	victim, want := cleanableVictim(t, s, 'V', false)
	locBefore := chunkLoc(t, s, victim).loc
	ps := planRead(t, s, victim)
	p := &ps[0]
	seg := p.seg
	name := segmentName(seg.num)

	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if chunkLoc(t, s, victim).loc == locBefore || inSet(s, seg.num) {
		t.Fatalf("cleaner did not relocate the victim (loc %v) and free its segment; test setup rotted", locBefore)
	}
	if c := hs.closeCount(name); c != 0 {
		t.Fatalf("freed segment %s closed %d times while a read held it", name, c)
	}

	// The read runs on against the pinned, freed segment: its bytes are
	// intact and validate, and they are the chunk's state at the plan.
	s.readPlans(ps)
	if p.err != nil || !bytes.Equal(p.data, want) {
		t.Fatalf("read planned before the relocation: %q, %v", p.data, p.err)
	}
	if c, refs := hs.closeCount(name), seg.refs.Load(); c != 1 || refs != 0 {
		t.Fatalf("after the read released it, freed segment %s was closed %d times with %d references, want 1 and 0", name, c, refs)
	}
	got, err := s.Read(victim)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Read after relocation: %q, %v", got, err)
	}
}

// TestReadTakesStoreLockOnce pins that a read takes the store mutex only in
// its plan act: inside the record's segment ReadAt, the test goroutine
// takes the mutex exclusively and holds it until the read has returned the
// right bytes, first for a point Read and then for a 2-chunk ReadBatch.
func TestReadTakesStoreLockOnce(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	hs := &readHookStore{UntrustedStore: env.cfg.Store}
	env.cfg.Store = hs
	s := env.open(t)
	defer s.Close()
	b := s.NewBatch()
	var ids []ChunkID
	var want [][]byte
	for i := 0; i < 2; i++ {
		cid, err := s.AllocateChunkID()
		if err != nil {
			t.Fatalf("AllocateChunkID: %v", err)
		}
		ids, want = append(ids, cid), append(want, bytes.Repeat([]byte{'L', byte(i)}, 300))
		b.Write(cid, want[i])
	}
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	records := map[Location]bool{}
	for _, cid := range ids {
		records[chunkLoc(t, s, cid).loc] = true
	}

	for _, n := range []int{1, 2} {
		inRead, locked := make(chan struct{}), make(chan struct{})
		var fired atomic.Bool
		hook := func(name string, off int64) {
			for loc := range records {
				if name == segmentName(loc.Seg) && off == int64(loc.Off) && fired.CompareAndSwap(false, true) {
					close(inRead)
					<-locked
				}
			}
		}
		hs.onRead.Store(&hook)
		res := make(chan error, 1)
		go func() {
			var rs []BatchRead
			if n == 1 {
				data, err := s.Read(ids[0])
				rs = []BatchRead{{CID: ids[0], Data: data, Err: err}}
			} else {
				rs = s.ReadBatch(ids)
			}
			for i, r := range rs {
				if r.Err == nil && !bytes.Equal(r.Data, want[i]) {
					r.Err = fmt.Errorf("chunk %d: wrong data %q", r.CID, r.Data)
				}
				if r.Err != nil {
					res <- r.Err
					return
				}
			}
			res <- nil
		}()
		select {
		case <-inRead:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d-chunk read never reached its record's segment read", n)
		}
		s.mu.Lock()
		close(locked)
		select {
		case err := <-res:
			s.mu.Unlock()
			if err != nil {
				t.Fatalf("%d-chunk read with the store mutex held elsewhere: %v", n, err)
			}
		case <-time.After(5 * time.Second):
			s.mu.Unlock()
			<-res
			t.Fatalf("%d-chunk read blocked on the store mutex after its segment read", n)
		}
		hs.onRead.Store(nil)
	}
}

// TestReadSegmentHandleLifetime pins the segment handle's reference count:
// each segment file is closed exactly once, after its last reference is
// released, and no read meets a closed handle. The cleaner frees a segment
// a read has pinned, then one an off-mutex sync task holds, and Close runs
// with a read in flight.
func TestReadSegmentHandleLifetime(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	hs := &readHookStore{UntrustedStore: env.cfg.Store}
	env.cfg.Store = hs
	env.cfg.SegmentSize = 4 << 10
	env.cfg.DisableAutoClean, env.cfg.DisableAutoCheckpoint = true, true
	s := env.open(t)
	open := true
	defer func() {
		if open {
			s.Close()
		}
	}()

	// A read holds a segment the cleaner frees.
	victim, want := cleanableVictim(t, s, 'R', false)
	ps := planRead(t, s, victim)
	seg := ps[0].seg
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if inSet(s, seg.num) || hs.closeCount(segmentName(seg.num)) != 0 {
		t.Fatalf("segment %d: freed %v, closed %d times while a read held it; want freed and open", seg.num, !inSet(s, seg.num), hs.closeCount(segmentName(seg.num)))
	}
	s.readPlans(ps)
	if ps[0].err != nil || !bytes.Equal(ps[0].data, want) {
		t.Fatalf("read of the freed segment: %q, %v", ps[0].data, ps[0].err)
	}
	if c := hs.closeCount(segmentName(seg.num)); c != 1 {
		t.Fatalf("freed segment closed %d times after the read released it, want 1", c)
	}

	// An off-mutex sync task holds segments the cleaner frees: nondurable
	// commits leave them unsynced, so the sync snapshot takes them.
	cleanableVictim(t, s, 'S', true)
	s.mu.Lock()
	tasks, err := s.segs.syncSnapshotLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("syncSnapshotLocked: %v", err)
	}
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	var freed []string
	for _, task := range tasks {
		if name := segmentName(task.seg.num); !inSet(s, task.seg.num) {
			freed = append(freed, name)
			if c := hs.closeCount(name); c != 0 {
				t.Fatalf("segment %s closed %d times while a sync task held it", name, c)
			}
		}
	}
	if len(freed) == 0 {
		t.Fatal("the cleaner freed no segment the sync snapshot took; test setup rotted")
	}
	err = s.segs.syncTasks(tasks)
	s.mu.Lock()
	s.segs.finishSyncLocked(tasks, err == nil)
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("off-mutex sync of freed segments: %v", err)
	}
	for _, name := range freed {
		if c := hs.closeCount(name); c != 1 {
			t.Fatalf("freed segment %s closed %d times after the sync released it, want 1", name, c)
		}
	}

	// Close runs while a read is parked inside its segment ReadAt.
	e := chunkLoc(t, s, victim)
	parked, release := make(chan struct{}), make(chan struct{})
	var fired atomic.Bool
	hook := func(name string, off int64) {
		if name == segmentName(e.loc.Seg) && off == int64(e.loc.Off) && fired.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	}
	hs.onRead.Store(&hook)
	type result struct {
		data []byte
		err  error
	}
	res := make(chan result, 1)
	go func() {
		data, err := s.Read(victim)
		res <- result{data, err}
	}()
	<-parked
	open = false
	if err := s.Close(); err != nil {
		t.Fatalf("Close with a read in flight: %v", err)
	}
	if c := hs.closeCount(segmentName(e.loc.Seg)); c != 0 {
		t.Fatalf("Close closed the in-flight read's segment %d times", c)
	}
	close(release)
	if r := <-res; r.err != nil || !bytes.Equal(r.data, want) {
		t.Fatalf("read in flight across Close: %q, %v", r.data, r.err)
	}
	hs.mu.Lock()
	defer hs.mu.Unlock()
	for name, opens := range hs.opens {
		if c := hs.closes[name]; c != opens {
			t.Errorf("segment %s: %d handles, closed %d times", name, opens, c)
		}
	}
}

// TestReadRetriesRotThatACommitReplaced drives the one retry left in the
// read path: a read plans a chunk, its stored record rots, and a commit
// rewrites the chunk before the read settles. The validation failure was
// against an entry that has moved, so it is no damage: the read goes round
// again and returns the new value, quarantines nothing and leaves no pin.
func TestReadRetriesRotThatACommitReplaced(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	hs := &readHookStore{UntrustedStore: env.cfg.Store}
	env.cfg.Store = hs
	s := env.open(t)
	defer s.Close()
	cid := allocWrite(t, s, []byte("the old version"))
	newer := []byte("the version a commit wrote mid-read")
	e := chunkLoc(t, s, cid)
	var fired atomic.Bool
	hook := func(name string, off int64) {
		if name == segmentName(e.loc.Seg) && off == int64(e.loc.Off) && fired.CompareAndSwap(false, true) {
			rotChunk(t, env, s, cid)
			writeChunk(t, s, cid, newer)
		}
	}
	hs.onRead.Store(&hook)
	got, err := s.Read(cid)
	hs.onRead.Store(nil)
	if !fired.Load() {
		t.Fatal("the read never fetched the planned record; test setup rotted")
	}
	if err != nil || !bytes.Equal(got, newer) {
		t.Fatalf("read whose rotted record a commit replaced: %q, %v; want the new value", got, err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.quarantine) != 0 {
		t.Fatalf("quarantined %v, want nothing", s.quarantine)
	}
	for num, seg := range s.segs.segs {
		if refs := seg.refs.Load(); refs != 1 {
			t.Fatalf("segment %d holds %d references after the read, want only the set's", num, refs)
		}
	}
}

// TestReadLinearizedAtPlan pins where a read takes effect: a read planned
// before an overwriting commit, or before a deallocation, that lands while
// it fetches its record returns the pre-commit value; a read planned after
// it returns the new value, or ErrNotAllocated for the deallocated chunk.
func TestReadLinearizedAtPlan(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	hs := &readHookStore{UntrustedStore: env.cfg.Store}
	env.cfg.Store = hs
	s := env.open(t)
	defer s.Close()
	older, newer := []byte("the pre-commit value"), []byte("the committed value")
	for _, tc := range []struct {
		name    string
		op      func(b *Batch, cid ChunkID)
		want    []byte
		wantErr error
	}{
		{"overwrite", func(b *Batch, cid ChunkID) { b.Write(cid, newer) }, newer, nil},
		{"deallocate", func(b *Batch, cid ChunkID) { b.Deallocate(cid) }, nil, ErrNotAllocated},
	} {
		cid := allocWrite(t, s, older)
		e := chunkLoc(t, s, cid)
		var fired atomic.Bool
		hook := func(name string, off int64) {
			if name == segmentName(e.loc.Seg) && off == int64(e.loc.Off) && fired.CompareAndSwap(false, true) {
				b := s.NewBatch()
				tc.op(b, cid)
				if err := s.Commit(b, true); err != nil {
					t.Errorf("%s: Commit mid-read: %v", tc.name, err)
				}
			}
		}
		hs.onRead.Store(&hook)
		got, err := s.Read(cid)
		hs.onRead.Store(nil)
		if !fired.Load() {
			t.Fatalf("%s: the read never fetched the planned record; test setup rotted", tc.name)
		}
		if err != nil || !bytes.Equal(got, older) {
			t.Fatalf("%s: read planned before the commit: %q, %v; want the pre-commit value", tc.name, got, err)
		}
		got, err = s.Read(cid)
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s: read planned after the commit: %q, %v; want %v", tc.name, got, err, tc.wantErr)
			}
		} else if err != nil || !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: read planned after the commit: %q, %v; want the new value", tc.name, got, err)
		}
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
// can observe every ReadAt they serve and count every Close. A ReadAt on a
// closed handle fails with errReadOnClosedHandle.
type readHookStore struct {
	platform.UntrustedStore
	onRead atomic.Pointer[func(name string, off int64)]

	mu     sync.Mutex
	opens  map[string]int // segment file name → handles created or opened
	closes map[string]int // segment file name → Close calls on its handles
}

var errReadOnClosedHandle = errors.New("ReadAt on a closed segment handle")

func (h *readHookStore) wrap(name string, f platform.File, err error) (platform.File, error) {
	if _, isSeg := parseSegmentName(name); err != nil || !isSeg {
		return f, err
	}
	h.mu.Lock()
	if h.opens == nil {
		h.opens = map[string]int{}
	}
	h.opens[name]++
	h.mu.Unlock()
	return &readHookFile{File: f, name: name, h: h}, nil
}

func (h *readHookStore) Create(name string) (platform.File, error) {
	f, err := h.UntrustedStore.Create(name)
	return h.wrap(name, f, err)
}

func (h *readHookStore) Open(name string) (platform.File, error) {
	f, err := h.UntrustedStore.Open(name)
	return h.wrap(name, f, err)
}

// closeCount returns how many times the handles of segment file name were
// closed.
func (h *readHookStore) closeCount(name string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closes[name]
}

type readHookFile struct {
	platform.File
	name   string
	h      *readHookStore
	closed atomic.Bool
}

func (f *readHookFile) ReadAt(p []byte, off int64) (int, error) {
	if fn := f.h.onRead.Load(); fn != nil {
		(*fn)(f.name, off)
	}
	if f.closed.Load() {
		return 0, errReadOnClosedHandle
	}
	return f.File.ReadAt(p, off)
}

func (f *readHookFile) Close() error {
	f.closed.Store(true)
	f.h.mu.Lock()
	if f.h.closes == nil {
		f.h.closes = map[string]int{}
	}
	f.h.closes[f.name]++
	f.h.mu.Unlock()
	return f.File.Close()
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
