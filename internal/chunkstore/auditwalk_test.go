package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// auditEnv opens a store whose segment reads pass through a readHookStore,
// holding 40 chunks, with background maintenance off so that the only
// writes are the test's own.
func auditEnv(t *testing.T) (*testEnv, *readHookStore, *Store, []ChunkID) {
	t.Helper()
	env := newTestEnv(t, "aes-gcm")
	hs := &readHookStore{UntrustedStore: env.cfg.Store}
	env.cfg.Store = hs
	env.cfg.DisableAutoClean, env.cfg.DisableAutoCheckpoint = true, true
	s := env.open(t)
	var ids []ChunkID
	for i := 0; i < 40; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 200)))
	}
	return env, hs, s, ids
}

// chunkSegments returns the names of the store's chunk segments, the only
// files that hold user-data records.
func chunkSegments(s *Store) map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]bool{}
	for num, seg := range s.segs.segs {
		if !seg.nodes {
			out[segmentName(num)] = true
		}
	}
	return out
}

// TestAuditsScrubCommitInsideRecordRead pins that no audit reads a chunk
// record with the store mutex held: inside every chunk-segment ReadAt an
// audit makes, the mutex is free (TryLock succeeds), and the first such
// read runs a durable one-chunk commit to completion before the audit goes
// on. It holds for Verify, Scrub, a full backup's ForEach and an
// incremental backup's Diff, and the audits leave PrefetchedChunks alone.
func TestAuditsScrubCommitInsideRecordRead(t *testing.T) {
	audits := []struct {
		name string
		run  func(s *Store, base, sn *Snapshot) error
	}{
		{"Verify", func(s *Store, _, _ *Snapshot) error { return s.Verify() }},
		{"Scrub", func(s *Store, _, _ *Snapshot) error {
			r, err := s.Scrub()
			if err == nil && !r.Clean() {
				err = fmt.Errorf("scrub report %+v", r)
			}
			return err
		}},
		{"ForEach", func(_ *Store, _, sn *Snapshot) error {
			return sn.ForEach(func(ChunkID, []byte, []byte) error { return nil })
		}},
		{"Diff", func(_ *Store, base, sn *Snapshot) error {
			return sn.Diff(base, func(DiffChange) error { return nil })
		}},
	}
	for _, a := range audits {
		t.Run(a.name, func(t *testing.T) {
			_, hs, s, ids := auditEnv(t)
			defer s.Close()
			base, err := s.TakeSnapshot()
			if err != nil {
				t.Fatalf("TakeSnapshot: %v", err)
			}
			defer base.Close()
			for _, cid := range ids[:10] {
				writeChunk(t, s, cid, []byte("rewritten after the base"))
			}
			sn, err := s.TakeSnapshot()
			if err != nil {
				t.Fatalf("TakeSnapshot: %v", err)
			}
			defer sn.Close()
			extra, err := s.AllocateChunkID()
			if err != nil {
				t.Fatalf("AllocateChunkID: %v", err)
			}
			segs := chunkSegments(s)
			reads, commits := 0, 0
			hook := func(name string, _ int64) {
				if !segs[name] {
					return
				}
				reads++
				if !s.mu.TryLock() {
					t.Errorf("%s read a chunk record with the store mutex held", a.name)
					return
				}
				s.mu.Unlock()
				if commits == 0 {
					commits++
					b := s.NewBatch()
					b.Write(extra, []byte("committed inside an audit's record read"))
					if err := s.Commit(b, true); err != nil {
						t.Errorf("durable commit inside %s's record read: %v", a.name, err)
					}
				}
			}
			hs.onRead.Store(&hook)
			err = a.run(s, base, sn)
			hs.onRead.Store(nil)
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			if reads == 0 || commits != 1 {
				t.Fatalf("%s made %d chunk-segment reads and %d commits inside them, want some and 1", a.name, reads, commits)
			}
			if got, err := s.Read(extra); err != nil || string(got) != "committed inside an audit's record read" {
				t.Fatalf("Read of the chunk committed inside %s: %q, %v", a.name, got, err)
			}
			if st := s.Stats(); st.PrefetchedChunks != 0 {
				t.Fatalf("%s counted %d prefetched chunks, want 0", a.name, st.PrefetchedChunks)
			}
		})
	}
}

// scrubWithHook runs a scrub whose first chunk-segment read calls fn.
func scrubWithHook(t *testing.T, hs *readHookStore, s *Store, fn func()) *ScrubReport {
	t.Helper()
	segs := chunkSegments(s)
	var once sync.Once
	hook := func(name string, _ int64) {
		if segs[name] {
			once.Do(func() {
				hs.onRead.Store(nil)
				fn()
			})
		}
	}
	hs.onRead.Store(&hook)
	report, err := s.Scrub()
	hs.onRead.Store(nil)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	return report
}

// TestAuditsScrubRewrittenRotChunkEndsUnquarantined: a chunk rotten in the
// scrub's snapshot but rewritten while the scrub reads it is not
// quarantined and not reported — the damage went with the version.
func TestAuditsScrubRewrittenRotChunkEndsUnquarantined(t *testing.T) {
	env, hs, s, ids := auditEnv(t)
	defer s.Close()
	rotten, other := ids[3], ids[7]
	rotChunk(t, env, s, rotten)
	rotChunk(t, env, s, other)
	report := scrubWithHook(t, hs, s, func() {
		writeChunk(t, s, rotten, []byte("rewritten mid-scrub"))
	})
	if got := report.BadIDs(); !slices.Equal(got, []ChunkID{other}) {
		t.Fatalf("scrub reported bad chunks %v, want [%d] (not the rewritten %d)", got, other, rotten)
	}
	if got := s.Quarantined(); !slices.Equal(got, []ChunkID{other}) {
		t.Fatalf("Quarantined() = %v, want [%d]", got, other)
	}
	if got, err := s.Read(rotten); err != nil || string(got) != "rewritten mid-scrub" {
		t.Fatalf("Read of the rewritten chunk: %q, %v", got, err)
	}
}

// TestAuditsScrubKeepsNewerQuarantine: a chunk the scrub verified in its
// snapshot, whose newer version an organic read quarantined while the
// scrub ran, stays quarantined — the scrub vouches only for the version it
// read.
func TestAuditsScrubKeepsNewerQuarantine(t *testing.T) {
	env, hs, s, ids := auditEnv(t)
	defer s.Close()
	cid := ids[5]
	report := scrubWithHook(t, hs, s, func() {
		writeChunk(t, s, cid, bytes.Repeat([]byte("v2"), 100))
		rotChunk(t, env, s, cid)
		if _, err := s.Read(cid); !errors.Is(err, ErrDegraded) {
			t.Errorf("organic read of the rotten newer version: %v, want ErrDegraded", err)
		}
	})
	if !report.Clean() || report.ChunksChecked != int64(len(ids)) {
		t.Fatalf("scrub of the snapshot: %+v, want clean with %d chunks checked", report, len(ids))
	}
	if got := s.Quarantined(); !slices.Equal(got, []ChunkID{cid}) {
		t.Fatalf("Quarantined() = %v, want [%d]: the scrub lifted a quarantine it did not verify", got, cid)
	}
}

// TestAuditsScrubBesideCleanerAndCommits runs scrubs while a committer
// rewrites the chunks they read and the cleaner compacts behind it, under
// a map-node budget small enough that the walks fault nodes in: no scrub
// may report or quarantine a healthy chunk.
func TestAuditsScrubBesideCleanerAndCommits(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	env.cfg.Fanout = 4
	env.cfg.CacheBytes = 2 << 10
	s := env.open(t)
	defer s.Close()
	var ids []ChunkID
	for i := 0; i < 48; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 300)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits atomic.Int64
	errs := make(chan error, 2) // one send at most per goroutine
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := s.NewBatch()
			b.Write(ids[i%len(ids)], bytes.Repeat([]byte{byte(i)}, 300+i%64))
			if err := s.Commit(b, i%3 == 0); err != nil && !errors.Is(err, ErrMaintenance) {
				errs <- fmt.Errorf("commit %d: %w", i, err)
				return
			}
			commits.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Clean(); err != nil {
				errs <- fmt.Errorf("Clean: %w", err)
				return
			}
		}
	}()
	for i := 0; i < 4 || commits.Load() < 200 && i < 1000; i++ {
		report, err := s.Scrub()
		if err != nil {
			t.Errorf("Scrub %d: %v", i, err)
			break
		}
		if !report.Clean() || report.ChunksChecked != int64(len(ids)) {
			t.Errorf("Scrub %d beside commits and the cleaner: %+v, want clean with %d chunks checked", i, report, len(ids))
		}
		if q := s.Quarantined(); len(q) != 0 {
			t.Errorf("Scrub %d quarantined %v", i, q)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestAuditsDiffDuringCommits: a Diff streamed while commits run equals the
// Diff of the same two snapshots streamed with no writers.
func TestAuditsDiffDuringCommits(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	env.cfg.Fanout = 4
	s := env.open(t)
	defer s.Close()
	var ids []ChunkID
	for i := 0; i < 64; i++ {
		ids = append(ids, allocWrite(t, s, []byte(fmt.Sprintf("v1-%02d", i))))
	}
	base, err := s.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	defer base.Close()
	for i := 0; i < len(ids); i += 3 {
		writeChunk(t, s, ids[i], []byte(fmt.Sprintf("v2-%02d", i)))
	}
	for i := 0; i < 20; i++ { // grows the tree past the base's height
		allocWrite(t, s, []byte(fmt.Sprintf("new-%02d", i)))
	}
	b := s.NewBatch()
	b.Deallocate(ids[10])
	b.Deallocate(ids[41])
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	sn, err := s.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	defer sn.Close()
	diff := func() []string {
		var out []string
		if err := sn.Diff(base, func(ch DiffChange) error {
			out = append(out, fmt.Sprintf("%d %v %x %x", ch.CID, ch.Deleted, ch.Hash, ch.Ciphertext))
			return nil
		}); err != nil {
			t.Fatalf("Diff: %v", err)
		}
		return out
	}

	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			b := s.NewBatch()
			b.Write(ids[i%8], []byte(fmt.Sprintf("v3-%d", i)))
			if err := s.Commit(b, i%2 == 0); err != nil && !errors.Is(err, ErrMaintenance) {
				done <- err
				return
			}
		}
	}()
	during := diff()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("commit beside the diff: %v", err)
	}
	quiet := diff()
	if !slices.Equal(during, quiet) {
		t.Fatalf("diff during commits (%d changes) differs from the quiet diff (%d changes)", len(during), len(quiet))
	}
	if want := len(ids)/3 + 1 + 2 + 20; len(quiet) != want {
		t.Fatalf("diff has %d changes, want %d", len(quiet), want)
	}
}
