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
	env := newTestEnv(t, "aes-gcm")
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
	harden, removes := firstIndex(ops, "sync seg-"), 0
	for _, op := range ops[harden+1:] {
		if strings.HasPrefix(op, "remove seg-") {
			removes++
		}
	}
	if harden < 0 || removes < 2 {
		t.Fatalf("test premise: want a harden, then two or more victim frees; got %v", ops)
	}
	if i := firstIndex(ops, "write superblock"); i >= 0 {
		t.Fatalf("a cycle that moved no map node wrote the superblock: %v", ops)
	}
}

// checkSegmentKinds scans every segment of s and fails t if a map-node
// record lies outside a node segment or a chunk record inside one. It
// returns the node segments.
func checkSegmentKinds(t *testing.T, s *Store) []uint64 {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var nodeSegs []uint64
	for _, num := range s.segs.numbers() {
		types := map[byte]int{}
		if _, err := s.scanLog(position{seg: num, off: segHeaderSize}, func(loc Location, typ byte, _ []byte) (bool, error) {
			if loc.Seg != num {
				return false, nil
			}
			types[typ]++
			return true, nil
		}); err != nil {
			t.Fatalf("scanning segment %d: %v", num, err)
		}
		seg := s.segs.segs[num]
		if !seg.nodes && types[recMapNode] > 0 {
			t.Errorf("chunk segment %d holds %d map-node records", num, types[recMapNode])
		}
		if seg.nodes {
			if types[recWrite] > 0 {
				t.Errorf("node segment %d holds %d chunk records", num, types[recWrite])
			}
			nodeSegs = append(nodeSegs, num)
		}
	}
	return nodeSegs
}

// TestCleanWritesNoMapNodeRecord: the checkpoint is the only writer of
// map-node records, and the cleaner never sees one. A cycle appends no
// map-node record, reserves no IV generation, takes only chunk segments as
// victims and leaves every node segment as it found it.
func TestCleanWritesNoMapNodeRecord(t *testing.T) {
	_, log, s, want := mapNodeCycle(t)
	s.mu.Lock()
	start := position{seg: s.segs.tail.num, off: s.segs.tail.size}
	nodeLive := map[uint64]int64{}
	for num, seg := range s.segs.segs {
		if seg.nodes {
			nodeLive[num] = seg.live
		}
	}
	s.mu.Unlock()
	gen := s.ivGen.Load()
	log.take()
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if got := s.ivGen.Load(); got != gen {
		t.Errorf("the cycle reserved %d IV generations, want none", got-gen)
	}
	s.mu.Lock()
	types := map[byte]int{}
	if _, err := s.scanLog(start, func(_ Location, typ byte, _ []byte) (bool, error) {
		types[typ]++
		return true, nil
	}); err != nil {
		t.Fatalf("scanLog: %v", err)
	}
	if types[recWrite] == 0 || types[recCommit] == 0 {
		t.Errorf("test premise: the cycle appended %v, want chunk copies and a commit", types)
	}
	if n := types[recMapNode]; n != 0 {
		t.Errorf("the cycle appended %d map-node records", n)
	}
	if len(nodeLive) == 0 {
		t.Error("test premise: the store has no node segment")
	}
	for num, live := range nodeLive {
		if seg := s.segs.segs[num]; seg == nil || seg.live != live {
			t.Errorf("the cycle changed node segment %d (live %d before, segment %v after)", num, live, seg)
		}
	}
	s.mu.Unlock()
	freed := 0
	for _, op := range log.take() {
		if num, ok := parseSegmentName(strings.TrimPrefix(op, "remove ")); ok && strings.HasPrefix(op, "remove ") {
			if _, isNode := nodeLive[num]; isNode {
				t.Errorf("the cycle freed node segment %d", num)
			}
			freed++
		}
	}
	if freed == 0 {
		t.Error("test premise: the cycle freed no victim")
	}
	checkSegmentKinds(t, s)
	for cid, v := range want {
		wantRead(t, s, cid, v)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestMapNodesLiveOnlyInNodeSegments runs commits, cleaning cycles and
// checkpoints, among them a back-to-back pair, a failed checkpoint and one
// under an open snapshot, and scans every segment after each step. Map-node
// records lie only in node segments. After a checkpoint that writes nodes,
// every older node segment no snapshot pins is more than MaxUtilization
// live, and the empty ones are gone when it returns. The ones a snapshot
// pinned go with the first checkpoint after it is closed. The second
// checkpoint of a back-to-back pair writes no node.
func TestMapNodesLiveOnlyInNodeSegments(t *testing.T) {
	env, _, s := openLogged(t, 4)
	want := map[ChunkID]string{}
	var cids []ChunkID
	for i := 0; i < 48; i++ {
		v := fmt.Sprintf("first-%02d", i)
		cids = append(cids, allocWrite(t, s, []byte(v)))
		want[cids[i]] = v
	}
	rewrite := func(tag string, every int) {
		for i := 0; i < len(cids); i += every {
			want[cids[i]] = fmt.Sprintf("%s-%02d-%s", tag, i, strings.Repeat("x", 200))
			writeChunk(t, s, cids[i], []byte(want[cids[i]]))
		}
	}
	// gone fails t if a listed segment is still there.
	gone := func(what string, listed []uint64) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, num := range listed {
			if s.segs.segs[num] != nil {
				t.Errorf("%s: emptied node segment %d survived", what, num)
			}
		}
	}
	// checkpoint checkpoints and returns how many map-node records it wrote
	// and the empty node segments before it that a snapshot kept.
	checkpoint := func(what string) (nodes int, pinned []uint64) {
		t.Helper()
		s.mu.Lock()
		start := position{seg: s.segs.tail.num, off: s.segs.tail.size}
		s.mu.Unlock()
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("%s: Checkpoint: %v", what, err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		first := uint64(0)
		if _, err := s.scanLog(start, func(loc Location, typ byte, _ []byte) (bool, error) {
			if first == 0 && (typ == recMapNode || typ == recCheckpoint) {
				first = loc.Seg
			}
			if typ == recMapNode {
				nodes++
			}
			return true, nil
		}); err != nil {
			t.Fatalf("%s: scanLog: %v", what, err)
		}
		for _, num := range s.segs.numbers() {
			seg := s.segs.segs[num]
			switch {
			case !seg.nodes || num >= first:
			case num < s.firstUnpinned():
				if seg.live == 0 {
					pinned = append(pinned, num)
				}
			case seg.live == 0:
				t.Errorf("%s: empty node segment %d survived the checkpoint", what, num)
			case nodes > 0 && float64(seg.live) <= s.cfg.MaxUtilization*float64(seg.size):
				t.Errorf("%s: node segment %d is %d/%d live after a checkpoint that wrote nodes", what, num, seg.live, seg.size)
			}
		}
		return nodes, pinned
	}
	clean := func(what string) {
		t.Helper()
		if err := s.Clean(); err != nil {
			t.Fatalf("%s: Clean: %v", what, err)
		}
		checkSegmentKinds(t, s)
	}

	if n, _ := checkpoint("first"); n == 0 {
		t.Fatal("test premise: the first checkpoint wrote no node")
	}
	rewrite("second", 2)
	clean("after the first checkpoint")
	checkpoint("second")
	checkSegmentKinds(t, s)

	// An open snapshot pins the node segments at or below its tail: the
	// checkpoint that empties them keeps them.
	snap, err := s.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	rewrite("third", 1)
	_, pinned := checkpoint("under the snapshot")
	if len(pinned) == 0 {
		t.Fatal("test premise: the checkpoint under the snapshot emptied no node segment")
	}
	clean("under the snapshot")

	// Back to back: the second checkpoint finds nothing dirty.
	rewrite("fourth", 7)
	if n, _ := checkpoint("back to back, first"); n == 0 {
		t.Fatal("test premise: the first of the pair wrote no node")
	}
	if n, _ := checkpoint("back to back, second"); n != 0 {
		t.Errorf("the second checkpoint of a back-to-back pair wrote %d map-node records, want none", n)
	}
	checkSegmentKinds(t, s)

	// A checkpoint whose harden fails leaves its node records in the log.
	rewrite("fifth", 3)
	env.fs.SetSyncFailures(true)
	if err := s.Checkpoint(); err == nil {
		t.Fatal("test premise: a checkpoint whose syncs fail succeeded")
	}
	env.fs.SetSyncFailures(false)
	checkSegmentKinds(t, s)
	rewrite("sixth", 4)
	checkpoint("after the failed checkpoint")
	clean("after the failed checkpoint")

	// Closing the snapshot unpins its segments: the next checkpoint frees
	// them.
	snap.Close()
	rewrite("seventh", 6)
	checkpoint("after the snapshot closed")
	gone("after the snapshot closed", pinned)
	clean("after the snapshot closed")
	checkSegmentKinds(t, s)
	for cid, v := range want {
		wantRead(t, s, cid, v)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s = env.open(t)
	defer s.Close()
	checkSegmentKinds(t, s)
	for cid, v := range want {
		wantRead(t, s, cid, v)
	}
}

// sparseNodeCycle: at fanout 4 the stable chunks' leaves are written once,
// by the first checkpoint, and the hot chunk keeps only its own path dirty,
// so the second checkpoint leaves the first's node segment sparse, and the
// third moves the stable leaves out of it and empties it.
func sparseNodeCycle(t *testing.T) (*testEnv, *opLog, *Store, map[ChunkID]string) {
	env, log, s, want := mapNodeCycle(t)
	for cid, v := range want {
		if strings.HasPrefix(v, "hot-") {
			churnHot(t, s, cid, 4, "hot-again", want)
			break
		}
	}
	return env, log, s, want
}

// TestCrashSweepCheckpointFreesNodeSegments: a checkpoint moves the live
// nodes out of sparse node segments, and frees the emptied segments only
// after its superblock slot is written and synced, since until then
// recovery loads the previous checkpoint's tree, which reads nodes there;
// it frees them before it returns. Checkpoint then Clean survives a crash
// at every write boundary, under both power-loss flavors.
func TestCrashSweepCheckpointFreesNodeSegments(t *testing.T) {
	_, log, s, _ := sparseNodeCycle(t)
	s.mu.Lock()
	var sparse []uint64
	for num, seg := range s.segs.segs {
		if seg.nodes && float64(seg.live) <= s.cfg.MaxUtilization*float64(seg.size) {
			sparse = append(sparse, num)
		}
	}
	s.mu.Unlock()
	if len(sparse) == 0 {
		t.Fatal("test premise: no node segment is sparse")
	}
	log.take()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ops := log.take()
	w := firstIndex(ops, "write superblock")
	synced := -1
	if w >= 0 {
		if i := firstIndex(ops[w:], "sync superblock"); i >= 0 {
			synced = w + i
		}
	}
	for _, num := range sparse {
		free := slices.Index(ops, "remove "+segmentName(num))
		if free < 0 || synced < 0 || synced > free {
			t.Fatalf("node segment %d not freed by the checkpoint after its superblock was written and synced: %v", num, ops)
		}
	}
	s.Close()

	sweepCleanCycle(t, sparseNodeCycle, func(s *Store) error {
		return errors.Join(s.Checkpoint(), s.Clean())
	})
}

// TestTamperDeletedSegmentNotRelocated: a checkpointed segment may be gone
// only if the residual log relocated all of its live bytes. Deleting a
// segment before the checkpoint that still holds live chunk records is
// ErrTampered at Open; once a cleaning cycle has relocated them and freed
// the same segments, the store opens with every value.
func TestTamperDeletedSegmentNotRelocated(t *testing.T) {
	env, _, s, want := relocationCycle(t)
	// The checkpoint synced its superblock slot, so the image recovers from
	// it and replays this durable commit behind it.
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

// TestCrashUnpublishedCheckpointNodesStayInNodeSegments: a checkpoint whose
// node records reached the log but whose superblock slot did not leaves
// recovery with the older checkpoint's tree and the newer node locations
// replayed on top. Replay marks the segments holding those records as node
// segments, so no cleaning cycle takes one for a victim, and the next
// checkpoint that writes nodes carries them on; cleaning, checkpointing and
// crashing again keep every value.
func TestCrashUnpublishedCheckpointNodesStayInNodeSegments(t *testing.T) {
	setup := func(t *testing.T) (*testEnv, *opLog, *Store, map[ChunkID]string) {
		env, log, s := openLogged(t, 4)
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
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		churnHot(t, s, hot, 1, "after", want)
		want[stable[0]] = "stable-0-rewritten"
		writeChunk(t, s, stable[0], []byte(want[stable[0]]))
		return env, log, s, want
	}
	// The dry run finds the checkpoint's superblock write; the real run's
	// device dies there, after the checkpoint's records are synced.
	_, log, s, _ := setup(t)
	log.take()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	w := firstIndex(log.take(), "write superblock")
	s.Close()
	if w < 0 {
		t.Fatal("test premise: the checkpoint wrote no superblock slot")
	}
	env, _, s, want := setup(t)
	s.mu.Lock()
	published := s.lastCkpt
	s.mu.Unlock()
	env.fs.SetWriteBudget(int64(w))
	if err := s.Checkpoint(); err == nil {
		t.Fatal("test premise: the checkpoint survived the device's death")
	}
	env.mem.Crash()
	env.fs.SetWriteBudget(-1)

	s = env.open(t)
	s.mu.Lock()
	replayed := 0
	if s.lastCkpt != published {
		t.Errorf("test premise: recovery anchored at %v, want the published checkpoint %v", s.lastCkpt, published)
	}
	for _, n := range s.lm.ring {
		if !n.loc.IsZero() && n.loc.Seg > published.Seg {
			replayed++
		}
	}
	s.mu.Unlock()
	if replayed == 0 {
		t.Fatal("test premise: recovery replayed no map-node record of the unpublished checkpoint")
	}
	checkSegmentKinds(t, s)
	if err := errors.Join(s.Clean(), s.Checkpoint(), s.Clean()); err != nil {
		t.Fatalf("Clean, Checkpoint, Clean: %v", err)
	}
	checkSegmentKinds(t, s)
	reopenTwice(t, env, want, "after cleaning over replayed checkpoint nodes")
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
		env := newTestEnv(t, "aes-gcm")
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
