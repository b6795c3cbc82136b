package chunkstore

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"tdb/internal/platform"
)

// opLog records, in order, the device operations a store completes:
// "create", "write", "sync", "truncate" and "remove", each followed by the
// file name.
type opLog struct {
	platform.UntrustedStore
	mu  sync.Mutex
	ops []string
}

func (l *opLog) note(op, name string) {
	l.mu.Lock()
	l.ops = append(l.ops, op+" "+name)
	l.mu.Unlock()
}

// take returns the operations recorded since the last take.
func (l *opLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := l.ops
	l.ops = nil
	return ops
}

func (l *opLog) Create(name string) (platform.File, error) {
	f, err := l.UntrustedStore.Create(name)
	if err != nil {
		return nil, err
	}
	l.note("create", name)
	return loggedFile{f, l, name}, nil
}

func (l *opLog) Open(name string) (platform.File, error) {
	f, err := l.UntrustedStore.Open(name)
	if err != nil {
		return nil, err
	}
	return loggedFile{f, l, name}, nil
}

func (l *opLog) Remove(name string) error {
	if err := l.UntrustedStore.Remove(name); err != nil {
		return err
	}
	l.note("remove", name)
	return nil
}

type loggedFile struct {
	platform.File
	log  *opLog
	name string
}

func (f loggedFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if err == nil {
		f.log.note("write", f.name)
	}
	return n, err
}

func (f loggedFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.log.note("sync", f.name)
	return nil
}

func (f loggedFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.log.note("truncate", f.name)
	return nil
}

// cleanSetup builds a store whose next Clean is the cycle under test,
// returning every chunk's expected value.
type cleanSetup func(t *testing.T) (*testEnv, *opLog, *Store, map[ChunkID]string)

// openLogged opens a keyed-suite store over an opLog with no background
// maintenance.
func openLogged(t *testing.T, fanout int) (*testEnv, *opLog, *Store) {
	t.Helper()
	env := newTestEnv(t, "aes-ctr-sha256")
	log := &opLog{UntrustedStore: env.fs}
	env.cfg.Store = log
	env.cfg.Fanout = fanout
	env.cfg.DisableAutoClean, env.cfg.DisableAutoCheckpoint = true, true
	return env, log, env.open(t)
}

// churnHot overwrites hot rounds times with large values, leaving garbage
// for the cleaner, and records its final value in want.
func churnHot(t *testing.T, s *Store, hot ChunkID, rounds int, tag string, want map[ChunkID]string) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		v := fmt.Sprintf("%s-%02d-%s", tag, i, strings.Repeat("h", 300))
		writeChunk(t, s, hot, []byte(v))
		want[hot] = v
	}
}

// relocationCycle: stable chunks share the segments before the last
// checkpoint with a hot chunk's garbage, and that checkpoint rewrote every
// map node after them, so the cleaning cycle relocates only chunk writes and
// publishes them with a durable commit record.
func relocationCycle(t *testing.T) (*testEnv, *opLog, *Store, map[ChunkID]string) {
	env, log, s := openLogged(t, 64)
	want := map[ChunkID]string{}
	hot := allocWrite(t, s, []byte("hot"))
	for i := 0; i < 10; i++ {
		v := fmt.Sprintf("stable-%02d", i)
		want[allocWrite(t, s, []byte(v))] = v
		churnHot(t, s, hot, 4, fmt.Sprintf("hot-%d", i), want)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return env, log, s, want
}

// mapNodeCycle: at fanout 4 the stable chunks' leaves are never rewritten
// after the first checkpoint, so they stay live in a segment that the hot
// chunk's garbage and a later checkpoint make a victim.
func mapNodeCycle(t *testing.T) (*testEnv, *opLog, *Store, map[ChunkID]string) {
	env, log, s := openLogged(t, 4)
	want := map[ChunkID]string{}
	for i := 0; i < 32; i++ {
		v := fmt.Sprintf("stable-%02d", i)
		want[allocWrite(t, s, []byte(v))] = v
	}
	hot := allocWrite(t, s, []byte("hot"))
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	churnHot(t, s, hot, 60, "hot", want)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return env, log, s, want
}

// sweepCleanCycle runs action on setup's store once and returns its device
// operations. Then, under both power-loss flavors — unsynced writes lost or
// kept — it crashes action on a fresh setup at every one of those
// boundaries: recovery must succeed, keep every value, verify, and reopen.
func sweepCleanCycle(t *testing.T, setup cleanSetup, action func(*Store) error) []string {
	t.Helper()
	_, log, s, _ := setup(t)
	log.take()
	if err := action(s); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	ops := log.take()
	s.Close()
	for _, lose := range []bool{true, false} {
		for budget := 0; budget <= len(ops); budget++ {
			env, _, s, want := setup(t)
			env.fs.SetWriteBudget(int64(budget))
			actionErr := action(s)
			if lose {
				env.mem.Crash()
			}
			env.fs.SetWriteBudget(-1)
			for reopen := 0; reopen < 2; reopen++ {
				s2, err := Open(env.cfg)
				if err != nil {
					t.Fatalf("lose=%v budget %d (%v), open %d: %v", lose, budget, actionErr, reopen, err)
				}
				for _, cid := range slices.Sorted(maps.Keys(want)) {
					if got, err := s2.Read(cid); err != nil || string(got) != want[cid] {
						t.Fatalf("lose=%v budget %d (%v), open %d: Read(%d) = %.12q, %v; want %.12q",
							lose, budget, actionErr, reopen, cid, got, err, want[cid])
					}
				}
				if err := s2.Verify(); err != nil {
					t.Fatalf("lose=%v budget %d, open %d: Verify: %v", lose, budget, reopen, err)
				}
				env.mem.Crash()
			}
		}
	}
	return ops
}

// firstIndex returns the index of the first operation with the given
// prefix, or -1.
func firstIndex(ops []string, prefix string) int {
	return slices.IndexFunc(ops, func(op string) bool { return strings.HasPrefix(op, prefix) })
}

// TestCrashSweepRelocationCommit crashes a cleaning cycle that publishes
// through the log at every write boundary: the flush carrying the copies,
// the publishing commit record and its round seal, the harden's sync, and
// each victim's free. The cycle writes no checkpoint and no superblock.
func TestCrashSweepRelocationCommit(t *testing.T) {
	ops := sweepCleanCycle(t, relocationCycle, (*Store).Clean)
	t.Logf("cycle: %v", ops)
	removes := 0
	for _, op := range ops {
		if strings.HasPrefix(op, "remove seg-") {
			removes++
		}
	}
	if removes < 2 || firstIndex(ops, "sync seg-") < 0 || firstIndex(ops, "sync seg-") > firstIndex(ops, "remove") {
		t.Fatalf("test premise: want a harden, then two or more victim frees; got %v", ops)
	}
	if i := firstIndex(ops, "write superblock"); i >= 0 {
		t.Fatalf("a cycle that moved no map node wrote the superblock: %v", ops)
	}
}

// TestCrashMapNodeVictimWaitsForCheckpoint: a victim whose live map-node
// records a cycle relocates is emptied but not freed — recovery loads
// checkpointed nodes from their checkpoint-time locations — and the cycle
// still publishes through the log. A checkpoint publishes the nodes' new
// locations, and the next cycle frees the victim only after that
// checkpoint's superblock slot is written and synced. Clean, Checkpoint,
// Clean survives a crash at every write boundary.
func TestCrashMapNodeVictimWaitsForCheckpoint(t *testing.T) {
	_, log, s, _ := mapNodeCycle(t)
	log.take()
	before := s.Stats().Checkpoints
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if got := s.Stats().Checkpoints; got != before {
		t.Fatalf("a cycle that moved live map nodes made %d checkpoints, want none", got-before)
	}
	held := slices.Sorted(maps.Keys(s.nodeVictims))
	if len(held) == 0 {
		t.Fatal("test premise: the cycle moved no live map node")
	}
	first := log.take()
	for _, num := range held {
		if slices.Contains(first, "remove "+segmentName(num)) {
			t.Fatalf("victim %d freed with its map nodes' checkpoint unpublished: %v", num, first)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	ops := log.take()
	w := firstIndex(ops, "write superblock")
	for _, num := range held {
		free := slices.Index(ops, "remove "+segmentName(num))
		if free < 0 || w < 0 || firstIndex(ops[w:], "sync superblock") < 0 || w+firstIndex(ops[w:], "sync superblock") > free {
			t.Fatalf("victim %d not freed after the checkpoint's superblock was written and synced: %v", num, ops)
		}
	}
	s.Close()

	sweepCleanCycle(t, mapNodeCycle, func(s *Store) error {
		return errors.Join(s.Clean(), s.Checkpoint(), s.Clean())
	})
}

// TestTamperDeletedSegmentNotRelocated: a checkpointed segment may be gone
// only if the residual log relocated all of its live bytes. Deleting a
// segment before the checkpoint that still holds live chunk records is
// ErrTampered at Open; once a cleaning cycle has relocated them and freed
// the same segments, the store opens with every value.
func TestTamperDeletedSegmentNotRelocated(t *testing.T) {
	env, _, s, want := relocationCycle(t)
	// A durable commit's harden syncs the checkpoint's deferred superblock
	// slot, so the image recovers from that checkpoint.
	want[allocWrite(t, s, []byte("synced"))] = "synced"
	img := env.mem.Snapshot()
	var live []string
	s.mu.RLock()
	for num, seg := range s.segs.segs {
		if num < s.lastCkpt.Seg && seg.live > 0 {
			live = append(live, segmentName(num))
		}
	}
	s.mu.RUnlock()
	if len(live) == 0 {
		t.Fatal("test premise: no segment before the checkpoint holds live records")
	}
	for _, name := range live {
		cut := maps.Clone(img)
		delete(cut, name)
		env.mem.Restore(cut)
		if _, err := Open(env.cfg); !errors.Is(err, ErrTampered) || !strings.Contains(err.Error(), "live bytes is missing") {
			t.Fatalf("Open with %s deleted: %v, want ErrTampered naming the missing live bytes", name, err)
		}
	}

	env.mem.Restore(img)
	s2 := env.open(t)
	if err := s2.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	env.mem.Crash()
	for _, name := range live {
		if _, ok := env.mem.Snapshot()[name]; ok {
			t.Fatalf("test premise: the cleaning cycle left %s", name)
		}
	}
	s3 := env.open(t)
	defer s3.Close()
	for cid, v := range want {
		wantRead(t, s3, cid, v)
	}
}

// TestCrashUnpublishedCheckpointNodesMakeCleanerCheckpoint: a checkpoint
// whose node records reached the log but whose superblock slot did not
// leaves recovery with the older checkpoint's tree and the newer node
// locations replayed on top. The leaf the older checkpoint still reads from
// a victim then looks dead to the current tree, so the cleaning cycle must
// publish with a checkpoint: freeing the victim behind a relocation commit
// would leave the next recovery reading a leaf from a missing segment.
func TestCrashUnpublishedCheckpointNodesMakeCleanerCheckpoint(t *testing.T) {
	env, _, s := openLogged(t, 4)
	want := map[ChunkID]string{}
	var stable []ChunkID
	for i := 0; i < 3; i++ {
		v := fmt.Sprintf("stable-%d", i)
		cid := allocWrite(t, s, []byte(v))
		want[cid] = v
		stable = append(stable, cid)
	}
	hot := allocWrite(t, s, []byte("hot"))
	if err := s.Checkpoint(); err != nil { // the stable leaf's only record
		t.Fatalf("Checkpoint: %v", err)
	}
	churnHot(t, s, hot, 60, "hot", want)
	if err := s.Checkpoint(); err != nil { // published: the next harden syncs its slot
		t.Fatalf("Checkpoint: %v", err)
	}
	churnHot(t, s, hot, 1, "after", want)
	want[stable[0]] = "stable-0-rewritten"
	writeChunk(t, s, stable[0], []byte(want[stable[0]]))
	if err := s.Checkpoint(); err != nil { // its slot never reaches the disk
		t.Fatalf("Checkpoint: %v", err)
	}
	env.mem.Crash()

	s = env.open(t)
	before := s.Stats().Checkpoints
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if s.Stats().Checkpoints == before {
		t.Fatal("a cycle run over replayed checkpoint nodes published without a checkpoint")
	}
	env.mem.Crash()
	s2 := env.open(t)
	defer s2.Close()
	for cid, v := range want {
		wantRead(t, s2, cid, v)
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// commitOwed durably commits v to a new chunk and returns with the commit's
// harden still owed, the state post-commit maintenance runs in.
func commitOwed(t *testing.T, s *Store, want map[ChunkID]string, v string) CommitTicket {
	t.Helper()
	cid, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	b := s.NewBatch()
	b.Write(cid, []byte(v))
	p, err := s.PrepareBatch(b)
	if err != nil {
		t.Fatalf("PrepareBatch: %v", err)
	}
	ticket, err := s.CommitPrepared(b, p, true)
	if err != nil {
		t.Fatalf("CommitPrepared: %v", err)
	}
	want[cid] = v
	return ticket
}

// reopenTwice crashes the store's device, then twice opens it, checks every
// value and verifies it, crashing again after each open.
func reopenTwice(t *testing.T, env *testEnv, want map[ChunkID]string, what string) {
	t.Helper()
	env.mem.Crash()
	for reopen := 0; reopen < 2; reopen++ {
		s, err := Open(env.cfg)
		if err != nil {
			t.Fatalf("%s, open %d: %v", what, reopen, err)
		}
		for _, cid := range slices.Sorted(maps.Keys(want)) {
			if got, err := s.Read(cid); err != nil || string(got) != want[cid] {
				t.Fatalf("%s, open %d: Read(%d) = %.12q, %v; want %.12q", what, reopen, cid, got, err, want[cid])
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%s, open %d: Verify: %v", what, reopen, err)
		}
		env.mem.Crash()
	}
}

// TestCrashAfterFailedMaintenanceInOpenRound: post-commit maintenance runs
// between a durable commit's append and its round's seal. A cleaning cycle
// that fails after relocating a victim, or a checkpoint that fails after
// writing map nodes, leaves records behind that no commit record signs, and
// the round's seal, which recovery replays up to, must not cover them
// unsigned: recovery would rebuild a root the round's commits never signed.
// The commit hardens after the failure, the device crashes, and recovery
// must open, keep every value and verify.
func TestCrashAfterFailedMaintenanceInOpenRound(t *testing.T) {
	clean := func(s *Store) error { return s.cleanLocked(1<<62, true) }
	t.Run("second victim tampered", func(t *testing.T) {
		env, _, s, want := relocationCycle(t)
		s.mu.Lock()
		first, ok1, _ := s.pickVictim(true, map[uint64]bool{})
		second, ok2, _ := s.pickVictim(true, map[uint64]bool{first: true})
		s.mu.Unlock()
		if !ok1 || !ok2 || s.segs.segs[first].live == 0 {
			t.Fatalf("test premise: want two victims, the first with live records")
		}
		var bad Location
		if err := s.lm.forEachEntry(s.lm.root, func(_ ChunkID, e entry) error {
			if e.loc.Seg == second {
				bad = e.loc
			}
			return nil
		}); err != nil || bad.IsZero() {
			t.Fatalf("test premise: no live chunk in the second victim (%v)", err)
		}
		flip := func() {
			if err := env.mem.Corrupt(segmentName(second), int64(bad.Off+bad.Len-1)); err != nil {
				t.Fatal(err)
			}
		}
		ticket := commitOwed(t, s, want, "owed")
		flip()
		s.mu.Lock()
		err := clean(s)
		moved := s.segs.segs[first].live == 0
		s.mu.Unlock()
		flip()
		if !errors.Is(err, ErrTampered) || !moved {
			t.Fatalf("test premise: clean = %v with the first victim emptied %v; want ErrTampered after it", err, moved)
		}
		if err := s.AwaitDurable(ticket); err != nil {
			t.Fatalf("AwaitDurable: %v", err)
		}
		reopenTwice(t, env, want, "after the failed cycle")
	})
	// wideTree leaves every node of a fanout-4 tree over 200 chunks dirty,
	// so a checkpoint's node records span more than one segment.
	wideTree := func(t *testing.T) (*testEnv, *opLog, *Store, map[ChunkID]string) {
		env, log, s := openLogged(t, 4)
		want := map[ChunkID]string{}
		var cids []ChunkID
		for i := 0; i < 200; i++ {
			v := fmt.Sprintf("first-%03d", i)
			cids = append(cids, allocWrite(t, s, []byte(v)))
			want[cids[i]] = v
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		for i, cid := range cids {
			want[cid] = fmt.Sprintf("second-%03d", i)
			writeChunk(t, s, cid, []byte(want[cid]))
		}
		return env, log, s, want
	}
	// wideSegments: segments three times the write-behind buffer, so a
	// cycle's copies overflow the buffer and flush in mid-cycle, where a
	// failed flush leaves the copy being appended in the log.
	wideSegments := func(t *testing.T) (*testEnv, *opLog, *Store, map[ChunkID]string) {
		env := newTestEnv(t, "aes-ctr-sha256")
		log := &opLog{UntrustedStore: env.fs}
		env.cfg.Store, env.cfg.SegmentSize = log, 3*writeBehindCap
		env.cfg.DisableAutoClean, env.cfg.DisableAutoCheckpoint = true, true
		s := env.open(t)
		want := map[ChunkID]string{}
		hot := allocWrite(t, s, []byte("hot"))
		for i := 0; i < 200; i++ {
			v := fmt.Sprintf("stable-%03d-%s", i, strings.Repeat("s", 4<<10))
			want[allocWrite(t, s, []byte(v))] = v
			want[hot] = fmt.Sprintf("hot-%03d-%s", i, strings.Repeat("h", 4<<10))
			writeChunk(t, s, hot, []byte(want[hot]))
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		return env, log, s, want
	}
	for _, tc := range []struct {
		name   string
		setup  cleanSetup
		action func(*Store) error
	}{
		{"clean", relocationCycle, clean},
		{"clean map nodes", mapNodeCycle, clean},
		{"clean wide segments", wideSegments, clean},
		{"checkpoint", wideTree, (*Store).checkpointLocked},
	} {
		t.Run(tc.name+" budget sweep", func(t *testing.T) {
			_, log, s, want := tc.setup(t)
			ticket := commitOwed(t, s, want, "owed")
			log.take()
			s.mu.Lock()
			err := tc.action(s)
			s.mu.Unlock()
			ops := log.take()
			if err != nil {
				t.Fatalf("dry run: %v", err)
			}
			if err := s.AwaitDurable(ticket); err != nil {
				t.Fatalf("dry run: AwaitDurable: %v", err)
			}
			s.Close()
			t.Logf("ops: %v", ops)
			for budget := 0; budget < 2*len(ops); budget++ {
				// Odd runs commit once more after the harden, so that a
				// later commit record signs the failure's records too.
				env, _, s, want := tc.setup(t)
				ticket := commitOwed(t, s, want, "owed")
				env.fs.SetWriteBudget(int64(budget / 2))
				s.mu.Lock()
				actionErr := tc.action(s)
				s.mu.Unlock()
				env.fs.SetWriteBudget(-1)
				if err := s.AwaitDurable(ticket); err != nil {
					t.Fatalf("budget %d (%v): AwaitDurable: %v", budget/2, actionErr, err)
				}
				if budget%2 == 1 {
					want[allocWrite(t, s, []byte("later"))] = "later"
				}
				reopenTwice(t, env, want, fmt.Sprintf("budget %d, later commit %v (%v)", budget/2, budget%2 == 1, actionErr))
			}
		})
	}
}
