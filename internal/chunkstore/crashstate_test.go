package chunkstore

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// The crash-state explorer. A recorder over MemStore logs every device
// operation of a short history of commits, cleaning cycles and checkpoints.
// The explorer then rebuilds, from the log alone, every crash state the
// platform contract allows: file creation and removal are durable at once,
// and a file's content is what its last Sync covered plus any subset of the
// writes and truncates made to it since, the last write of all possibly
// torn: at a 512-byte sector boundary, or, when it lies within one sector
// (a superblock slot), inside that sector. The one-way counter is separate
// hardware: an increment is durable when it returns.

// devOp is one recorded device operation.
type devOp struct {
	kind string // "create", "write", "truncate", "sync", "remove" or "incr"
	name string
	off  int64 // write offset, or truncate size
	data []byte
}

func (op devOp) String() string {
	switch op.kind {
	case "write":
		return fmt.Sprintf("write %s@%d+%d", op.name, op.off, len(op.data))
	case "truncate":
		return fmt.Sprintf("truncate %s to %d", op.name, op.off)
	}
	return strings.TrimSpace(op.kind + " " + op.name)
}

// errInjectedSync and errInjectedCreate are the permanent failures the
// recorder injects.
var (
	errInjectedSync   = errors.New("injected sync failure")
	errInjectedCreate = errors.New("injected create failure")
)

// recorder is an UntrustedStore and OneWayCounter over a MemStore and a
// MemCounter that logs every completed mutation. Syncs of the files
// failSync approves fail and change nothing, and so does the creation of
// files while failCreate is set.
type recorder struct {
	mem        *platform.MemStore
	ctr        *platform.MemCounter
	mu         sync.Mutex
	ops        []devOp
	failSync   func(name string) bool
	failCreate bool
}

// setFailSync makes the syncs of the files fail approves fail; nil lets
// every sync through.
func (r *recorder) setFailSync(fail func(name string) bool) {
	r.mu.Lock()
	r.failSync = fail
	r.mu.Unlock()
}

// setFailCreate makes every file creation fail, or none.
func (r *recorder) setFailCreate(fail bool) {
	r.mu.Lock()
	r.failCreate = fail
	r.mu.Unlock()
}

func (r *recorder) add(op devOp) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// now returns how many operations have completed.
func (r *recorder) now() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

func (r *recorder) Create(name string) (platform.File, error) {
	r.mu.Lock()
	fail := r.failCreate
	r.mu.Unlock()
	if fail {
		return nil, errInjectedCreate
	}
	f, err := r.mem.Create(name)
	if err != nil {
		return nil, err
	}
	r.add(devOp{kind: "create", name: name})
	return recordedFile{f, r, name}, nil
}

func (r *recorder) Open(name string) (platform.File, error) {
	f, err := r.mem.Open(name)
	if err != nil {
		return nil, err
	}
	return recordedFile{f, r, name}, nil
}

func (r *recorder) Remove(name string) error {
	if err := r.mem.Remove(name); err != nil {
		return err
	}
	r.add(devOp{kind: "remove", name: name})
	return nil
}

func (r *recorder) List() ([]string, error) { return r.mem.List() }
func (r *recorder) Sync() error             { return r.mem.Sync() }
func (r *recorder) Read() (uint64, error)   { return r.ctr.Read() }

func (r *recorder) Increment() (uint64, error) {
	v, err := r.ctr.Increment()
	if err == nil {
		r.add(devOp{kind: "incr"})
	}
	return v, err
}

type recordedFile struct {
	platform.File
	r    *recorder
	name string
}

func (f recordedFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	if err == nil {
		f.r.add(devOp{kind: "write", name: f.name, off: off, data: append([]byte(nil), p...)})
	}
	return n, err
}

func (f recordedFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.r.add(devOp{kind: "truncate", name: f.name, off: size})
	return nil
}

func (f recordedFile) Sync() error {
	f.r.mu.Lock()
	fail := f.r.failSync != nil && f.r.failSync(f.name)
	f.r.mu.Unlock()
	if fail {
		return errInjectedSync
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.r.add(devOp{kind: "sync", name: f.name})
	return nil
}

// crashHistory is a recorded history: its device operations, the state
// after each commit (states[0] is the empty store), and the acknowledgments
// — by operation index, the newest state acknowledged durable.
type crashHistory struct {
	ops    []devOp
	states []map[ChunkID]string
	acks   []crashAck
	cids   []ChunkID
}

type crashAck struct{ op, state int }

// ackedBy returns the newest state acknowledged durable by the first p
// operations.
func (h *crashHistory) ackedBy(p int) int {
	acked := 0
	for _, a := range h.acks {
		if a.op <= p {
			acked = max(acked, a.state)
		}
	}
	return acked
}

// crashConfig is the store configuration of the history and of every
// recovery: fanout 4 and 8 KiB segments, no background maintenance.
func crashConfig(store platform.UntrustedStore, ctr platform.OneWayCounter, suite sec.Suite) Config {
	return Config{
		Store: store, Counter: ctr, Suite: suite,
		SegmentSize: 8 << 10, Fanout: 4,
		DisableAutoClean: true, DisableAutoCheckpoint: true,
	}
}

// recordCrashHistory runs the history: commits over sixteen stable chunks
// and a hot one in a leaf of its own (every fourth commit nondurable), a
// cleaning cycle, a checkpoint, a second checkpoint back to back, a commit
// that deallocates a stable chunk, more commits, two checkpoints that write only the hot chunk's path — the first
// leaves the segment holding the stable leaves sparse, the second moves
// them and empties it — a checkpoint whose syncs fail, a checkpoint, a
// cleaning cycle, two more commits, a nondurable commit whose records roll
// the tail into a new segment between flush points and a durable one whose
// round's flush fails at that segment's Create, two more commits, a
// checkpoint whose log harden succeeds and whose superblock sync alone
// fails, a checkpoint that retries its slot and a final cleaning cycle.
func recordCrashHistory(t *testing.T, suite sec.Suite) *crashHistory {
	t.Helper()
	rec := &recorder{mem: platform.NewMemStore(), ctr: platform.NewMemCounter()}
	s, err := Open(crashConfig(rec, rec, suite))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	h := &crashHistory{states: []map[ChunkID]string{{}}}
	for i := 0; i < 17; i++ {
		cid, err := s.AllocateChunkID()
		if err != nil {
			t.Fatalf("AllocateChunkID: %v", err)
		}
		h.cids = append(h.cids, cid)
	}
	stable, hot := h.cids[:16], h.cids[16]
	// tryCommit writes kv, deallocating the chunks it maps to "". A commit
	// that applied (nil or ErrNotDurable) joins the states, acknowledged
	// only on nil; a failure that applied nothing is returned as is.
	tryCommit := func(durable bool, kv map[ChunkID]string) error {
		b := s.NewBatch()
		next := maps.Clone(h.states[len(h.states)-1])
		for _, cid := range slices.Sorted(maps.Keys(kv)) {
			if kv[cid] == "" {
				b.Deallocate(cid)
				delete(next, cid)
			} else {
				b.Write(cid, []byte(kv[cid]))
				next[cid] = kv[cid]
			}
		}
		err := s.Commit(b, durable)
		if err != nil && !errors.Is(err, ErrNotDurable) {
			return err
		}
		h.states = append(h.states, next)
		if durable && err == nil {
			h.acks = append(h.acks, crashAck{rec.now(), len(h.states) - 1})
		}
		return err
	}
	commit := func(durable bool, kv map[ChunkID]string) {
		t.Helper()
		if err := tryCommit(durable, kv); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	checkpoint := func() {
		t.Helper()
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		h.acks = append(h.acks, crashAck{rec.now(), len(h.states) - 1})
	}
	clean := func() {
		t.Helper()
		if err := s.Clean(); err != nil {
			t.Fatalf("Clean: %v", err)
		}
	}
	churn := func(tag string, n int) {
		for i := 0; i < n; i++ {
			commit(i%4 != 3, map[ChunkID]string{hot: fmt.Sprintf("%s-%d-%s", tag, i, strings.Repeat("h", 900))})
		}
	}

	first := map[ChunkID]string{}
	for i, cid := range stable {
		first[cid] = fmt.Sprintf("stable-%d", i)
	}
	commit(true, first)
	churn("hot", 10)
	clean()
	checkpoint()
	checkpoint()
	// A dealloc record joins the checkpoint's node segment; the write
	// opens a chunk segment.
	commit(true, map[ChunkID]string{stable[15]: "", hot: "after-the-pair"})
	for i, cid := range stable[:3] {
		commit(true, map[ChunkID]string{cid: fmt.Sprintf("stable-%d-again", i)})
	}
	churn("warm", 6)
	churn("hot-path", 2)
	checkpoint()
	churn("hot-path-again", 2)
	checkpoint()
	churn("cold", 2)
	rec.setFailSync(func(string) bool { return true })
	if err := s.Checkpoint(); err == nil {
		t.Fatal("a checkpoint whose syncs fail succeeded")
	}
	rec.setFailSync(nil)
	checkpoint()
	clean()
	churn("late", 2)
	s.mu.RLock()
	segs := len(s.segs.segs)
	s.mu.RUnlock()
	commit(false, map[ChunkID]string{stable[4]: strings.Repeat("r", 5000), stable[5]: strings.Repeat("s", 5000)})
	s.mu.RLock()
	rolled, created := len(s.segs.segs) > segs, s.segs.tail.file != nil
	s.mu.RUnlock()
	if !rolled || created {
		t.Fatalf("test premise: the commit rolled the log %v, its new tail's file exists %v", rolled, created)
	}
	rec.setFailCreate(true)
	if err := tryCommit(true, map[ChunkID]string{hot: "create-fails"}); !errors.Is(err, ErrNotDurable) || !errors.Is(err, errInjectedCreate) {
		t.Fatalf("a durable commit whose flush cannot create a segment: %v, want ErrNotDurable for the injected create failure", err)
	}
	rec.setFailCreate(false)
	churn("created", 2)
	rec.setFailSync(func(name string) bool { return name == superblockName })
	var ioe *IOError
	if err := s.Checkpoint(); !errors.As(err, &ioe) || ioe.Op != "sync" || ioe.File != superblockName {
		t.Fatalf("a checkpoint whose superblock sync fails: %v, want the superblock sync's IOError", err)
	}
	rec.setFailSync(nil)
	checkpoint()
	clean()
	h.ops = rec.ops
	return h
}

// crashImage is one crash state: every file's content and the counter.
type crashImage struct {
	files map[string][]byte
	ctr   uint64
	desc  string
}

// pendingOp is a data operation made to a file since its last sync.
type pendingOp struct {
	idx int // index in the history's operations
	op  devOp
}

// applyOps applies data operations to a file's content.
func applyOps(base []byte, ops []devOp) []byte {
	out := append([]byte(nil), base...)
	for _, op := range ops {
		switch op.kind {
		case "write":
			if end := op.off + int64(len(op.data)); end > int64(len(out)) {
				out = append(out, make([]byte, end-int64(len(out)))...)
			}
			copy(out[op.off:], op.data)
		case "truncate":
			if op.off <= int64(len(out)) {
				out = out[:op.off]
			} else {
				out = append(out, make([]byte, op.off-int64(len(out)))...)
			}
		}
	}
	return out
}

// crashImages returns the crash states after the first p operations. The
// files with unsynced operations take every subset of them when they number
// at most maxSubset in all, and otherwise all, none, and each one left out
// or kept alone. When operation p-1 is a write, it is also torn at every
// 512-byte boundary inside it (at most maxTears, spread evenly) with every
// other unsynced operation applied. A write within one sector has no such
// boundary; it tears inside the sector instead — its first half new and the
// rest old, or its bytes all zero — with every other unsynced operation
// applied or none.
func crashImages(ops []devOp, p, maxSubset, maxTears int) []crashImage {
	durable := map[string][]byte{}
	pending := map[string][]pendingOp{}
	var ctr uint64
	for i, op := range ops[:p] {
		switch op.kind {
		case "create":
			durable[op.name] = nil
			pending[op.name] = nil
		case "remove":
			delete(durable, op.name)
			delete(pending, op.name)
		case "write", "truncate":
			pending[op.name] = append(pending[op.name], pendingOp{i, op})
		case "sync":
			var data []devOp
			for _, po := range pending[op.name] {
				data = append(data, po.op)
			}
			durable[op.name] = applyOps(durable[op.name], data)
			pending[op.name] = nil
		case "incr":
			ctr++
		}
	}
	var all []pendingOp
	for _, name := range slices.Sorted(maps.Keys(pending)) {
		all = append(all, pending[name]...)
	}
	image := func(keep func(pendingOp) (devOp, bool), desc string) crashImage {
		img := crashImage{files: map[string][]byte{}, ctr: ctr, desc: desc}
		for name, base := range durable {
			var data []devOp
			for _, po := range pending[name] {
				if op, ok := keep(po); ok {
					data = append(data, op)
				}
			}
			img.files[name] = applyOps(base, data)
		}
		return img
	}
	var out []crashImage
	if len(all) <= maxSubset {
		for mask := 0; mask < 1<<len(all); mask++ {
			kept := map[int]bool{}
			for i, po := range all {
				if mask&(1<<i) != 0 {
					kept[po.idx] = true
				}
			}
			out = append(out, image(func(po pendingOp) (devOp, bool) { return po.op, kept[po.idx] },
				fmt.Sprintf("unsynced subset %b of %d", mask, len(all))))
		}
	} else {
		out = append(out,
			image(func(po pendingOp) (devOp, bool) { return po.op, true }, "every unsynced op"),
			image(func(po pendingOp) (devOp, bool) { return po.op, false }, "no unsynced op"))
		for _, x := range all {
			out = append(out,
				image(func(po pendingOp) (devOp, bool) { return po.op, po.idx != x.idx }, fmt.Sprintf("all unsynced but op %d", x.idx)),
				image(func(po pendingOp) (devOp, bool) { return po.op, po.idx == x.idx }, fmt.Sprintf("only unsynced op %d", x.idx)))
		}
	}
	// tearLast applies operation p-1 as data, and every other unsynced
	// operation or, without others, none.
	tearLast := func(data []byte, others bool, desc string) crashImage {
		return image(func(po pendingOp) (devOp, bool) {
			if po.idx == p-1 {
				po.op.data = data
				return po.op, true
			}
			return po.op, others
		}, desc)
	}
	if last := ops[p-1]; last.kind == "write" {
		var cuts []int64
		for b := (last.off/512 + 1) * 512; b < last.off+int64(len(last.data)); b += 512 {
			cuts = append(cuts, b)
		}
		if len(cuts) == 0 && len(last.data) > 0 {
			// Within one sector: torn inside it.
			for _, others := range []bool{true, false} {
				out = append(out,
					tearLast(last.data[:len(last.data)/2], others, fmt.Sprintf("op %d torn in half, other unsynced ops %v", p-1, others)),
					tearLast(make([]byte, len(last.data)), others, fmt.Sprintf("op %d zeroed, other unsynced ops %v", p-1, others)))
			}
		}
		for k := 0; k < maxTears && k < len(cuts); k++ {
			cut := cuts[k*len(cuts)/min(maxTears, len(cuts))]
			out = append(out, tearLast(last.data[:cut-last.off], true, fmt.Sprintf("op %d torn at %d", p-1, cut)))
		}
	}
	return out
}

// readCrashState reads every chunk of the history from s: its value, or
// absent when it was never written.
func readCrashState(s *Store, cids []ChunkID) (map[ChunkID]string, error) {
	got := map[ChunkID]string{}
	for _, cid := range cids {
		v, err := s.Read(cid)
		switch {
		case errors.Is(err, ErrNotAllocated), errors.Is(err, ErrNotWritten):
		case err != nil:
			return nil, fmt.Errorf("Read(%d): %w", cid, err)
		default:
			got[cid] = string(v)
		}
	}
	return got, nil
}

// checkCrashImage recovers img and requires the state to be one of the
// history's at or after the newest one acknowledged durable by operation
// p. It then crashes the recovered store and requires a second recovery to
// find the same state, and a durable commit made there to survive a third
// crash: recovery's own writes must not be left for a later harden that
// never syncs them.
func checkCrashImage(h *crashHistory, suite sec.Suite, p int, img crashImage) error {
	mem := platform.NewMemStore()
	mem.Restore(img.files)
	ctr := platform.NewMemCounter()
	ctr.Set(img.ctr)
	var want map[ChunkID]string
	cids := h.cids
	for reopen := 0; reopen < 3; reopen++ {
		s, err := Open(crashConfig(mem, ctr, suite))
		if err != nil {
			return fmt.Errorf("open %d: %w", reopen, err)
		}
		got, err := readCrashState(s, cids)
		if err != nil {
			return fmt.Errorf("open %d: %w", reopen, err)
		}
		if err := s.Verify(); err != nil {
			return fmt.Errorf("open %d: Verify: %w", reopen, err)
		}
		switch reopen {
		case 0:
			found := false
			for j := h.ackedBy(p); j < len(h.states) && !found; j++ {
				found = maps.Equal(got, h.states[j])
			}
			if !found {
				return fmt.Errorf("recovered state %v is no commit prefix at or after state %d", got, h.ackedBy(p))
			}
			want = got
		case 1:
			if !maps.Equal(got, want) {
				return fmt.Errorf("a second crash changed the recovered state %v to %v", want, got)
			}
			cid, err := s.AllocateChunkID()
			if err != nil {
				return fmt.Errorf("AllocateChunkID after recovery: %w", err)
			}
			b := s.NewBatch()
			b.Write(cid, []byte("after the crash"))
			if err := s.Commit(b, true); err != nil {
				return fmt.Errorf("durable commit after recovery: %w", err)
			}
			cids = append(slices.Clone(cids), cid)
			want = maps.Clone(want)
			want[cid] = "after the crash"
		case 2:
			if !maps.Equal(got, want) {
				return fmt.Errorf("a crash after a durable commit on the recovered store found %v, want %v", got, want)
			}
		}
		mem.Crash()
	}
	return nil
}

// TestCrashStateSweep records a short history and opens every crash state
// the platform contract allows at every operation boundary (see
// crashImages): Open succeeds, the recovered state is the state after some
// commit at or after the newest one acknowledged durable, a second crash
// and reopen keeps it, and a durable commit on the recovered store survives
// a third (checkCrashImage). With -short the unsynced subsets and the tears
// are bounded more tightly.
func TestCrashStateSweep(t *testing.T) {
	suite, err := sec.NewSuite("aes-gcm", []byte("test-device-secret-0123456789abc"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	h := recordCrashHistory(t, suite)
	maxSubset, maxTears := 6, 16
	if testing.Short() {
		maxSubset, maxTears = 2, 2
	}
	start := time.Now()
	seen := map[[32]byte]bool{}
	for p := 1; p <= len(h.ops); p++ {
		for _, img := range crashImages(h.ops, p, maxSubset, maxTears) {
			d := sha256.New()
			fmt.Fprintf(d, "%d %d;", h.ackedBy(p), img.ctr)
			for _, name := range slices.Sorted(maps.Keys(img.files)) {
				fmt.Fprintf(d, "%s %d;", name, len(img.files[name]))
				d.Write(img.files[name])
			}
			var key [32]byte
			copy(key[:], d.Sum(nil))
			if seen[key] {
				continue
			}
			seen[key] = true
			if err := checkCrashImage(h, suite, p, img); err != nil {
				lo := max(0, p-6)
				t.Fatalf("crash after op %d (%v), %s: %v\nops %d..%d: %v", p-1, h.ops[p-1], img.desc, err, lo, p-1, h.ops[lo:p])
			}
		}
	}
	t.Logf("%d operations, %d commits, %d crash states in %v", len(h.ops), len(h.states)-1, len(seen), time.Since(start).Round(time.Millisecond))
}
