package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// groupEnv is a store-under-test with a sync-counting meter between the
// chunk store and memory, for asserting how many log syncs a set of
// commits cost.
type groupEnv struct {
	mem     *platform.MemStore
	meter   *platform.MeterStore
	counter *platform.MemCounter
	suite   sec.Suite
	cfg     Config
}

func newGroupEnv(t *testing.T) *groupEnv {
	t.Helper()
	suite, err := sec.NewSuite("aes-ctr-gmac", []byte("group-commit-test-secret-0123456"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	env := &groupEnv{
		mem:     platform.NewMemStore(),
		counter: platform.NewMemCounter(),
		suite:   suite,
	}
	env.meter = platform.NewMeterStore(env.mem)
	env.cfg = Config{
		Store:   env.meter,
		Counter: env.counter,
		Suite:   suite,
		// One big segment and no background maintenance, so the only syncs
		// during the measured window are commit-durability syncs.
		SegmentSize:           1 << 20,
		DisableAutoClean:      true,
		DisableAutoCheckpoint: true,
	}
	return env
}

func (env *groupEnv) open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// TestGroupCommitCoalescesSyncs is the core economy claim of the harden
// coordinator: rounds batch behind the in-flight sync. With a lone commit's
// round parked in its log sync while K-1 more durable commits append, the K
// commits cost exactly two log syncs and two one-way counter advances —
// the lone commit's round and one round covering every commit queued behind
// it — however many commits queued.
func TestGroupCommitCoalescesSyncs(t *testing.T) {
	const k = 8
	env := newPipeEnv(t, nil)
	s := env.open(t)
	defer s.Close()
	cids := make([]ChunkID, k)
	for i := range cids {
		cids[i] = allocID(t, s)
	}
	hw0 := env.hw(t)
	env.tl.hold("sync")
	done := env.queueBehindSync(t, s, cids)
	env.tl.open()
	for i, d := range done {
		if err := <-d; err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	for i, cid := range cids {
		wantRead(t, s, cid, fmt.Sprintf("v%d", i))
	}
	syncs := 0
	for _, ev := range env.tl.device() {
		if ev == "sync>" {
			syncs++
		}
	}
	if advances := env.hw(t) - hw0; syncs != 2 || advances != 2 {
		t.Errorf("%d durable commits, %d of them queued behind an in-flight sync, cost %d sync(s) and %d counter advance(s), want exactly 2 and 2", k, k-1, syncs, advances)
	}

	// The store must still recover and validate: the coalesced counter
	// advance has to match what recovery recomputes from the log.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened := env.open(t)
	defer reopened.Close()
	if err := reopened.Verify(); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
}

// TestRoundOfOneCostsTheInlineHarden gates "a lone committer's round is
// free" exactly, not by wall clock: one committer, N sequential durable
// commits, and the device sees precisely what the pre-coordinator inline
// harden cost — one WriteAt (the write-behind flush), one sync and one
// counter advance per commit, the same bytes, no truncates. The expected
// numbers were recorded from the parent commit's inline path running this
// same loop.
func TestRoundOfOneCostsTheInlineHarden(t *testing.T) {
	const n = 16
	env := newGroupEnv(t)
	s := env.open(t)
	defer s.Close()
	cid, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	before := env.meter.Stats().Snapshot()
	ctrBefore, err := env.counter.Read()
	if err != nil {
		t.Fatalf("counter Read: %v", err)
	}
	for i := 0; i < n; i++ {
		b := s.NewBatch()
		b.Write(cid, []byte(fmt.Sprintf("round-of-one payload %03d %s", i, strings.Repeat("x", 100))))
		if err := s.Commit(b, true); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	delta := env.meter.Stats().Snapshot().Sub(before)
	ctrAfter, err := env.counter.Read()
	if err != nil {
		t.Fatalf("counter Read: %v", err)
	}
	// The first commit also opens a chunk segment, since the tail Open left
	// is the format checkpoint's node segment: one more WriteAt, of the
	// segment header.
	want := platform.IOCounts{WriteOps: parentWriteOps + 1, BytesWritten: parentBytesWritten + segHeaderSize, SyncOps: parentSyncOps}
	if delta != want {
		t.Errorf("%d lone durable commits cost %+v, want the inline path's %+v", n, delta, want)
	}
	if got := ctrAfter - ctrBefore; got != parentAdvances {
		t.Errorf("%d lone durable commits advanced the counter %d times, want %d", n, got, parentAdvances)
	}
}

// The inline-harden cost of TestRoundOfOneCostsTheInlineHarden's loop (16
// sequential durable commits, write-behind on), recorded as 4080 bytes under
// the since-deleted AES-CBC/SHA-256 suite and carried over exactly to the
// CTR suites (aes-ctr-sha256, now aes-ctr-gmac, whose digest is 20 bytes too): per commit its 125-byte payload encrypts to 141 bytes instead of
// 144, and the commit record's root hash and MAC shrink from 32 to 20 bytes
// each, 16 × (255 − 3 − 24) = 3648. Each round now also appends its 41-byte
// seal record ahead of its sync, inside the same flush: 3648 + 16 × 41 = 4304.
const (
	parentWriteOps     = 16
	parentBytesWritten = 4304
	parentSyncOps      = 16
	parentAdvances     = 16
)

// TestGroupCommitHardensEarlierNondurable checks §3.2.2 through the
// coordinator: a durable commit's round hardens every earlier nondurable
// commit.
func TestGroupCommitHardensEarlierNondurable(t *testing.T) {
	env := newGroupEnv(t)
	fs := platform.NewFaultStore(env.mem)
	env.cfg.Store = fs
	s := env.open(t)

	fs.SetLoseUnsynced(true)

	// Nondurable commit first, then a durable one through the coordinator.
	nd, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	b := s.NewBatch()
	b.Write(nd, []byte("nondurable payload"))
	if err := s.Commit(b, false); err != nil {
		t.Fatalf("nondurable Commit: %v", err)
	}
	d, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	b = s.NewBatch()
	b.Write(d, []byte("durable payload"))
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("durable Commit: %v", err)
	}

	// Crash: everything unsynced is lost. The durable commit's round synced
	// the whole log tail, so both commits must survive.
	if err := fs.CrashLoseUnsynced(); err != nil {
		t.Fatalf("CrashLoseUnsynced: %v", err)
	}
	reopened := env.open(t)
	defer reopened.Close()
	for cid, want := range map[ChunkID]string{nd: "nondurable payload", d: "durable payload"} {
		got, err := reopened.Read(cid)
		if err != nil {
			t.Fatalf("Read(%d) after crash: %v", cid, err)
		}
		if string(got) != want {
			t.Fatalf("Read(%d) = %q, want %q", cid, got, want)
		}
	}
}

// TestDurableCommitContract pins the one failure contract of Store.Commit
// on a device whose syncs fail: the commit is applied and visible but
// reported ErrNotDurable (wrapping the I/O cause), a crash before the next
// harden loses it like any nondurable commit, the next successful durable
// commit hardens it, and a stage-2 failure still leaves no trace and the
// same Batch retries.
func TestDurableCommitContract(t *testing.T) {
	setup := func(t *testing.T) (*testEnv, *Store, ChunkID) {
		env := newTestEnv(t, "aes-ctr-gmac")
		env.cfg.DisableAutoClean = true
		env.cfg.DisableAutoCheckpoint = true
		// One attempt: a failing sync fails at once, with no backoff sleep.
		env.cfg.Retry = RetryPolicy{MaxAttempts: 1, Sleep: func(time.Duration) {}}
		s := env.open(t)
		env.fs.SetLoseUnsynced(true)
		return env, s, allocWrite(t, s, []byte("v0"))
	}
	commitUnderFailingSync := func(t *testing.T, env *testEnv, s *Store, cid ChunkID) {
		t.Helper()
		env.fs.SetSyncFailures(true)
		b := s.NewBatch()
		b.Write(cid, []byte("v1"))
		err := s.Commit(b, true)
		env.fs.SetSyncFailures(false)
		if !errors.Is(err, ErrNotDurable) || !errors.Is(err, ErrIO) || errors.Is(err, ErrMaintenance) {
			t.Fatalf("durable Commit under failing sync: %v, want ErrNotDurable wrapping ErrIO", err)
		}
		if b.Len() != 0 {
			t.Fatalf("applied batch still holds %d ops", b.Len())
		}
		if got, err := s.Read(cid); err != nil || string(got) != "v1" {
			t.Fatalf("Read after ErrNotDurable = %q, %v; want the applied value", got, err)
		}
	}
	reopenAndRead := func(t *testing.T, env *testEnv, cid ChunkID, want string) {
		t.Helper()
		if err := env.fs.CrashLoseUnsynced(); err != nil {
			t.Fatalf("CrashLoseUnsynced: %v", err)
		}
		s2 := env.open(t)
		defer s2.Close()
		if got, err := s2.Read(cid); err != nil || string(got) != want {
			t.Fatalf("recovered Read = %q, %v; want %q", got, err, want)
		}
		if err := s2.Verify(); err != nil {
			t.Fatalf("Verify after recovery: %v", err)
		}
	}

	t.Run("lost by a crash before the next harden", func(t *testing.T) {
		env, s, cid := setup(t)
		commitUnderFailingSync(t, env, s, cid)
		reopenAndRead(t, env, cid, "v0")
	})

	t.Run("hardened by the next durable commit", func(t *testing.T) {
		env, s, cid := setup(t)
		commitUnderFailingSync(t, env, s, cid)
		allocWrite(t, s, []byte("other"))
		reopenAndRead(t, env, cid, "v1")
	})

	t.Run("stage-2 failure leaves no trace and the batch retries", func(t *testing.T) {
		env, s, cid := setup(t)
		before := snapshotState(s)
		b := s.NewBatch()
		// Larger than a segment: stage 2 must create one, and that fails.
		b.Write(cid, bytes.Repeat([]byte("w"), env.cfg.SegmentSize+1))
		env.fs.SetWriteBudget(1)
		err := s.Commit(b, true)
		env.fs.SetWriteBudget(-1)
		if err == nil || errors.Is(err, ErrNotDurable) || errors.Is(err, ErrMaintenance) {
			t.Fatalf("Commit with a failing stage 2: %v, want a plain failure", err)
		}
		if got := snapshotState(s); got != before || b.Len() != 1 {
			t.Fatalf("failed stage 2 left a trace: %+v != %+v, batch holds %d ops", got, before, b.Len())
		}
		if got, err := s.Read(cid); err != nil || string(got) != "v0" {
			t.Fatalf("Read after failed stage 2 = %.8q, %v; want the old value", got, err)
		}
		if err := s.Commit(b, true); err != nil {
			t.Fatalf("retrying the same Batch: %v", err)
		}
		if got, err := s.Read(cid); err != nil || len(got) != env.cfg.SegmentSize+1 {
			t.Fatalf("Read after retry: %d bytes, %v", len(got), err)
		}
	})

	t.Run("leader and followers get the same error", func(t *testing.T) {
		// A lone commit's round fails, and so does the round of the
		// commits queued behind its sync: each follower gets its round's
		// one error, the same as the follower that led it.
		const k = 4
		env := newPipeEnv(t, nil)
		s := env.open(t)
		cids := make([]ChunkID, k)
		for i := range cids {
			cids[i] = allocID(t, s)
		}
		env.fs.SetSyncFailures(true)
		env.tl.hold("sync")
		done := env.queueBehindSync(t, s, cids)
		env.tl.open()
		errs := make([]error, k)
		for i, d := range done {
			errs[i] = <-d
			if !errors.Is(errs[i], ErrNotDurable) || !errors.Is(errs[i], ErrIO) {
				t.Errorf("committer %d: %v, want ErrNotDurable wrapping ErrIO", i, errs[i])
			}
		}
		for i := 2; i < k; i++ {
			if errs[i] != nil && errs[1] != nil && errs[i].Error() != errs[1].Error() {
				t.Errorf("follower %d: %q differs from follower 1's %q", i, errs[i], errs[1])
			}
		}
	})

	t.Run("a round that lost to a failed Close", func(t *testing.T) {
		env, s, cid := setup(t)
		b := s.NewBatch()
		b.Write(cid, []byte("v1"))
		p, err := s.PrepareBatch(b)
		if err != nil {
			t.Fatalf("PrepareBatch: %v", err)
		}
		ticket, err := s.CommitPrepared(b, p, true)
		if err != nil {
			t.Fatalf("CommitPrepared: %v", err)
		}
		env.fs.SetSyncFailures(true)
		if err := s.Close(); err == nil {
			t.Fatal("Close under failing sync succeeded")
		}
		if err := s.AwaitDurable(ticket); !errors.Is(err, ErrNotDurable) || !errors.Is(err, ErrClosed) {
			t.Fatalf("AwaitDurable after a failed Close: %v, want ErrNotDurable wrapping ErrClosed", err)
		}
	})
}
