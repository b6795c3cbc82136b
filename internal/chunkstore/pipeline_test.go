package chunkstore

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// The harden pipeline's tests run on three seams only — a gated segment
// File.Sync, a gated OneWayCounter and Retry.Sleep — and assert on the order
// and count of device events, never on wall-clock time.

// timeline logs every gated device event ("sync>" when a segment fsync is
// issued, "sync<" when it returns; "incr>", "incr<" for counter increments;
// "done:NAME" when a test commit returns) and parks the issuing goroutine
// while its kind is held, until the test releases it.
type timeline struct {
	mu      sync.Mutex
	cond    *sync.Cond
	events  []string
	held    map[string]bool
	tickets map[string]int
}

func newTimeline() *timeline {
	tl := &timeline{held: map[string]bool{}, tickets: map[string]int{}}
	tl.cond = sync.NewCond(&tl.mu)
	return tl
}

func (tl *timeline) note(ev string) {
	tl.mu.Lock()
	tl.events = append(tl.events, ev)
	tl.cond.Broadcast()
	tl.mu.Unlock()
}

// enter logs kind+">" and parks while kind is held and unreleased.
func (tl *timeline) enter(kind string) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.events = append(tl.events, kind+">")
	tl.cond.Broadcast()
	for tl.held[kind] && tl.tickets[kind] == 0 {
		tl.cond.Wait()
	}
	if tl.held[kind] {
		tl.tickets[kind]--
	}
}

// hold makes every later event of the given kinds park until released, and
// starts the log afresh: set-up's events are not the test's.
func (tl *timeline) hold(kinds ...string) {
	tl.mu.Lock()
	for _, k := range kinds {
		tl.held[k] = true
	}
	tl.events = nil
	tl.mu.Unlock()
}

// release lets one parked (or the next arriving) event of kind through.
func (tl *timeline) release(kind string) {
	tl.mu.Lock()
	tl.tickets[kind]++
	tl.cond.Broadcast()
	tl.mu.Unlock()
}

// open stops holding anything.
func (tl *timeline) open() {
	tl.mu.Lock()
	tl.held = map[string]bool{}
	tl.cond.Broadcast()
	tl.mu.Unlock()
}

// countLocked counts logged events with the given prefix. Caller holds mu.
func (tl *timeline) countLocked(prefix string) int {
	n := 0
	for _, ev := range tl.events {
		if strings.HasPrefix(ev, prefix) {
			n++
		}
	}
	return n
}

// await blocks until ev has been logged n times. It reports false if,
// first, more than done test commits have returned — the device crashed
// under the script and the event is never coming.
func (tl *timeline) await(ev string, n, done int) bool {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for tl.countLocked(ev) < n {
		if tl.countLocked("done:") > done {
			return false
		}
		tl.cond.Wait()
	}
	return true
}

// device returns the logged device events (everything but "done:").
func (tl *timeline) device() []string {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var out []string
	for _, ev := range tl.events {
		if !strings.HasPrefix(ev, "done:") {
			out = append(out, ev)
		}
	}
	return out
}

// seamStore gates the fsyncs of segment files on a timeline.
type seamStore struct {
	platform.UntrustedStore
	tl *timeline
}

func (s seamStore) wrap(name string, f platform.File, err error) (platform.File, error) {
	if _, isSeg := parseSegmentName(name); err != nil || !isSeg {
		return f, err
	}
	return seamFile{f, s.tl}, nil
}

func (s seamStore) Create(name string) (platform.File, error) {
	f, err := s.UntrustedStore.Create(name)
	return s.wrap(name, f, err)
}

func (s seamStore) Open(name string) (platform.File, error) {
	f, err := s.UntrustedStore.Open(name)
	return s.wrap(name, f, err)
}

type seamFile struct {
	platform.File
	tl *timeline
}

func (f seamFile) Sync() error {
	f.tl.enter("sync")
	err := f.File.Sync()
	f.tl.note("sync<")
	return err
}

// seamCounter gates a one-way counter's increments on a timeline and can be
// switched to fail them.
type seamCounter struct {
	platform.OneWayCounter
	tl   *timeline
	fail atomic.Bool
}

var errSeamCounter = errors.New("seam: counter device failed")

func (c *seamCounter) Increment() (uint64, error) {
	c.tl.enter("incr")
	if c.fail.Load() {
		c.tl.note("incr!")
		return 0, errSeamCounter
	}
	v, err := c.OneWayCounter.Increment()
	c.tl.note("incr<")
	return v, err
}

// pipeEnv is a store-under-test whose segment fsyncs and counter increments
// run through one timeline, over a fault store in the write-back cache
// model.
type pipeEnv struct {
	tl      *timeline
	mem     *platform.MemStore
	fs      *platform.FaultStore
	counter *seamCounter
	cfg     Config
}

// newPipeEnv builds the environment. counter is the device behind the
// gated counter; nil means a MemCounter.
func newPipeEnv(t *testing.T, counter func(*platform.FaultStore) platform.OneWayCounter) *pipeEnv {
	t.Helper()
	suite, err := sec.NewSuite("aes-sha256", []byte("harden-pipeline-test-secret-0123"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	env := &pipeEnv{tl: newTimeline(), mem: platform.NewMemStore()}
	env.fs = platform.NewFaultStore(env.mem)
	env.fs.SetLoseUnsynced(true)
	var dev platform.OneWayCounter = platform.NewMemCounter()
	if counter != nil {
		dev = counter(env.fs)
	}
	env.counter = &seamCounter{OneWayCounter: dev, tl: env.tl}
	env.cfg = Config{
		Store:      seamStore{env.fs, env.tl},
		Counter:    env.counter,
		Suite:      suite,
		UseCounter: true,
		// One big segment and no background maintenance: the only fsyncs and
		// increments are the rounds'. One attempt: a failing device fails at
		// once, with no backoff.
		SegmentSize:           1 << 20,
		DisableAutoClean:      true,
		DisableAutoCheckpoint: true,
		Retry:                 RetryPolicy{MaxAttempts: 1, Sleep: func(time.Duration) {}},
	}
	return env
}

func (env *pipeEnv) open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func (env *pipeEnv) hw(t *testing.T) uint64 {
	t.Helper()
	v, err := env.counter.Read()
	if err != nil {
		t.Fatalf("counter Read: %v", err)
	}
	return v
}

func allocID(t *testing.T, s *Store) ChunkID {
	t.Helper()
	cid, err := s.AllocateChunkID()
	if err != nil {
		t.Fatalf("AllocateChunkID: %v", err)
	}
	return cid
}

// commit starts a durable one-write commit on its own goroutine. The result
// arrives on the returned channel, and "done:"+name is logged.
func (env *pipeEnv) commit(s *Store, name string, cid ChunkID, val string) <-chan error {
	done := make(chan error, 1)
	go func() {
		b := s.NewBatch()
		b.Write(cid, []byte(val))
		err := s.Commit(b, true)
		done <- err
		env.tl.note("done:" + name)
	}()
	return done
}

// waitWaiters blocks until n commits are waiting on the coordinator: their
// records are appended and they are inside AwaitDurable.
func waitWaiters(s *Store, n int) {
	gc := s.gc
	gc.mu.Lock()
	for gc.waiters < n {
		gc.cond.Wait()
	}
	gc.mu.Unlock()
}

func notYet(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned early: %v", what, err)
	default:
	}
}

func wantRead(t *testing.T, s *Store, cid ChunkID, want string) {
	t.Helper()
	if got, err := s.Read(cid); err != nil || string(got) != want {
		t.Fatalf("Read(%d) = %q, %v; want %q", cid, got, err, want)
	}
}

// overlapTwoRounds drives commits A and X into the pipeline's defining
// state and returns with both parked: A's round has synced and sits in its
// counter increment (stage 2), while X — appended behind A's snapshot — has
// led the next round up to its own, still parked, log sync (stage 1).
func overlapTwoRounds(t *testing.T, env *pipeEnv, s *Store) (a, x ChunkID, doneA, doneX <-chan error) {
	t.Helper()
	a, x = allocID(t, s), allocID(t, s)
	env.tl.hold("sync", "incr")
	doneA = env.commit(s, "A", a, "a1")
	env.tl.await("sync>", 1, 0) // A's round is in its log sync
	doneX = env.commit(s, "X", x, "x1")
	waitWaiters(s, 2) // X's record is appended, behind A's snapshot
	env.tl.release("sync")
	env.tl.await("incr>", 1, 0) // A holds the stage-2 turn
	env.tl.await("sync>", 2, 0) // and X's sync is issued meanwhile
	return a, x, doneA, doneX
}

// TestAckedRoundRollbackIsTampered: restoring the disk image taken when one
// round was acknowledged, after a later round has been acknowledged too, is
// a replay — even when the later round's records were appended while the
// earlier round was still syncing. (With one stamp shared by both rounds
// the counter could not tell, recovery said "normal", and the later round's
// acknowledged commits were gone.)
func TestAckedRoundRollbackIsTampered(t *testing.T) {
	env := newPipeEnv(t, nil)
	s := env.open(t)
	a, x := allocID(t, s), allocID(t, s)
	env.tl.hold("sync")
	doneA := env.commit(s, "A", a, "a1")
	env.tl.await("sync>", 1, 0) // A's round is blocked in its log sync
	doneX := env.commit(s, "X", x, "x1")
	waitWaiters(s, 2) // X's record is appended while A's round syncs
	env.tl.release("sync")
	if err := <-doneA; err != nil {
		t.Fatalf("commit A: %v", err)
	}
	env.tl.await("sync>", 2, 1) // X's round: flushed, not yet synced
	image := env.mem.Snapshot() // the disk as of A's acknowledgement
	env.tl.release("sync")
	if err := <-doneX; err != nil {
		t.Fatalf("commit X: %v", err)
	}

	env.mem.Restore(image)
	env.tl.open()
	s2, err := Open(env.cfg)
	if !errors.Is(err, ErrTampered) {
		if err == nil {
			_, err = s2.Read(x)
		}
		t.Fatalf("disk rolled back past acknowledged commit X was accepted (Read(x): %v), want ErrTampered", err)
	}
}

// TestNextRoundSyncsWhileCounterAdvances is the pipeline's overlap and the
// update-c2 cliff (ROADMAP 5(d)) as an exact event order: a commit that just
// missed the leader's snapshot has its own log sync issued, and completed,
// while the leader's counter increment is still in flight; the store mutex
// is free throughout; and it is acknowledged after exactly one further sync
// and one advance of its own — two syncs and two advances in all, no round
// waited out whole, no empty round.
func TestNextRoundSyncsWhileCounterAdvances(t *testing.T) {
	env := newPipeEnv(t, nil)
	s := env.open(t)
	hw0 := env.hw(t)
	a, x, doneA, doneX := overlapTwoRounds(t, env, s)

	// Stage 2 is off the store mutex: readers and committers get through
	// while the increment is parked. Neither commit is acknowledged — A's
	// counter has not reached its stamp, X's round has not even synced.
	if !s.mu.TryRLock() {
		t.Fatal("Store.mu is held while a round's counter advance is in flight")
	}
	s.mu.RUnlock()
	wantRead(t, s, a, "a1")
	wantRead(t, s, x, "x1")
	notYet(t, "commit A", doneA)
	notYet(t, "commit X", doneX)

	// X's whole stage 1 fits inside A's advance.
	env.tl.release("sync")
	env.tl.await("sync<", 2, 0)
	if got, want := env.tl.device(), []string{"sync>", "sync<", "incr>", "sync>", "sync<"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("device events with round 1's increment parked: %v, want %v", got, want)
	}
	notYet(t, "commit X", doneX)

	env.tl.release("incr")
	if err := <-doneA; err != nil {
		t.Fatalf("commit A: %v", err)
	}
	env.tl.await("incr>", 2, 1)
	notYet(t, "commit X", doneX)
	env.tl.release("incr")
	if err := <-doneX; err != nil {
		t.Fatalf("commit X: %v", err)
	}
	want := []string{"sync>", "sync<", "incr>", "sync>", "sync<", "incr<", "incr>", "incr<"}
	if got := env.tl.device(); !reflect.DeepEqual(got, want) {
		t.Fatalf("device events for two overlapped rounds: %v, want %v", got, want)
	}
	if got := env.hw(t); got != hw0+2 || s.stampCtr != got {
		t.Fatalf("counter %d, newest stamp %d after two rounds from %d: every round owns one stamp", got, s.stampCtr, hw0)
	}
}

// TestFollowerAwaitsTheCounterNotALeader: a commit covered by a round whose
// sync is done and whose advance is in flight is neither acknowledged early
// nor does it lead an (empty) round of its own.
func TestFollowerAwaitsTheCounterNotALeader(t *testing.T) {
	env := newPipeEnv(t, nil)
	hold := make(chan struct{})
	defer close(hold)
	env.cfg.Retry.Sleep = func(time.Duration) { <-hold }
	s := env.open(t)
	a, f := allocID(t, s), allocID(t, s)
	env.tl.hold("incr")
	holdRoundFor(s, 2)
	doneA, doneF := env.commit(s, "A", a, "a1"), env.commit(s, "F", f, "f1")
	env.tl.await("incr>", 1, 0) // one round covers both; its advance is parked

	notYet(t, "commit A", doneA)
	notYet(t, "commit F", doneF)
	s.gc.mu.Lock()
	syncing, synced, hardened := s.gc.syncing, s.gc.synced, s.gc.hardened
	s.gc.mu.Unlock()
	if syncing || synced != s.Stats().CommitSeq || hardened >= synced {
		t.Fatalf("with the round's advance parked: syncing=%v synced=%d hardened=%d, want stage 1 free and both commits awaiting the counter", syncing, synced, hardened)
	}

	env.tl.release("incr")
	if errA, errF := <-doneA, <-doneF; errA != nil || errF != nil {
		t.Fatalf("commits: %v, %v", errA, errF)
	}
	if got, want := env.tl.device(), []string{"sync>", "sync<", "incr>", "incr<"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("device events for a round of two: %v, want %v", got, want)
	}

	// The same rule on the coordinator alone: a commit whose round has
	// synced waits for the counter; claim must not hand it a round to lead.
	gc := newGroupCommitter()
	gc.synced = 5
	led := make(chan bool, 1)
	go func() {
		lead, _ := gc.claim(5)
		led <- lead
	}()
	gc.noteHardened(5)
	if <-led {
		t.Fatal("a commit whose round had finished stage 1 was told to lead a round")
	}
}

// TestFailedAdvanceStrandsBothRounds: round N's increment fails after round
// N+1's sync succeeded. Neither round is acknowledged — both get the one
// ErrNotDurable contract, applied and visible — and the next harden
// advances through both stamps, and its own, before it acknowledges.
func TestFailedAdvanceStrandsBothRounds(t *testing.T) {
	env := newPipeEnv(t, nil)
	s := env.open(t)
	hw0 := env.hw(t)
	a, x, doneA, doneX := overlapTwoRounds(t, env, s)
	env.tl.release("sync")
	env.tl.await("sync<", 2, 0)

	env.counter.fail.Store(true)
	env.tl.open()
	for name, done := range map[string]<-chan error{"A": doneA, "X": doneX} {
		if err := <-done; !errors.Is(err, ErrNotDurable) || !errors.Is(err, errSeamCounter) || errors.Is(err, ErrMaintenance) {
			t.Fatalf("commit %s across a failed advance: %v, want ErrNotDurable wrapping the counter's error", name, err)
		}
	}
	if got := env.hw(t); got != hw0 {
		t.Fatalf("counter moved to %d across failed advances, want %d", got, hw0)
	}
	wantRead(t, s, a, "a1")
	wantRead(t, s, x, "x1")

	env.counter.fail.Store(false)
	c := allocWrite(t, s, []byte("c1"))
	if got := env.hw(t); got != hw0+3 || s.stampCtr != got {
		t.Fatalf("counter %d, newest stamp %d after the healing commit, want both %d (A's, X's and its own stamp)", got, s.stampCtr, hw0+3)
	}

	if err := env.fs.CrashLoseUnsynced(); err != nil {
		t.Fatalf("CrashLoseUnsynced: %v", err)
	}
	s2 := env.open(t)
	defer s2.Close()
	wantRead(t, s2, a, "a1")
	wantRead(t, s2, x, "x1")
	wantRead(t, s2, c, "c1")
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}

// TestRecoveryStampWindow pins recovery's counter check: the newest durable
// stamp may lead the hardware counter by up to hardenDepth+1 — a crash
// between the stages, caught up one increment at a time — and anything
// further ahead, or any lag, is ErrTampered. A catch-up increment that
// fails fails Open.
func TestRecoveryStampWindow(t *testing.T) {
	crashed := func(t *testing.T) (*testEnv, ChunkID, uint64) {
		env := newTestEnv(t, "aes-sha256")
		s := env.open(t)
		var cid ChunkID
		for i := 0; i < 6; i++ {
			cid = allocWrite(t, s, []byte("precious"))
		}
		env.mem.Crash() // no Close: the log ends at the last round
		hw, _ := env.counter.Read()
		return env, cid, hw
	}
	for lead := uint64(0); lead <= hardenDepth+3; lead++ {
		env, cid, hw := crashed(t)
		env.counter.Set(hw - lead)
		s, err := Open(env.cfg)
		if lead > hardenDepth+1 {
			if !errors.Is(err, ErrTampered) {
				t.Fatalf("log %d stamps ahead of the counter: Open = %v, want ErrTampered", lead, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("log %d stamps ahead of the counter: Open = %v, want a catch-up", lead, err)
		}
		if got, _ := env.counter.Read(); got != hw || s.stampCtr != hw || s.sealedCtr != hw {
			t.Fatalf("lead %d: counter %d, stampCtr %d, sealedCtr %d after catch-up, want all %d", lead, got, s.stampCtr, s.sealedCtr, hw)
		}
		wantRead(t, s, cid, "precious")
		allocWrite(t, s, []byte("next")) // the recovered store hardens on
		if got, _ := env.counter.Read(); got != hw+1 {
			t.Fatalf("lead %d: counter %d after the next commit, want %d", lead, got, hw+1)
		}
		s.Close()
	}

	env, _, hw := crashed(t)
	env.counter.Set(hw + 1)
	if _, err := Open(env.cfg); !errors.Is(err, ErrTampered) {
		t.Fatalf("log behind the counter: Open = %v, want ErrTampered", err)
	}

	env, _, hw = crashed(t)
	env.counter.Set(hw - 2)
	broken := &seamCounter{OneWayCounter: env.counter, tl: newTimeline()}
	broken.fail.Store(true)
	env.cfg.Counter = broken
	if _, err := Open(env.cfg); err == nil || errors.Is(err, ErrTampered) || !errors.Is(err, errSeamCounter) {
		t.Fatalf("catch-up increment failing: Open = %v, want the counter's error", err)
	}
}

// TestOpenStampReachesDiskThreeAhead is why the recovery window is
// hardenDepth+1 and not hardenDepth: with round N parked in its increment
// and round N+1 in its sync, a third durable record carries the open stamp —
// three past the hardware counter — and a write-through behind it pushes it
// to the file. A crash that keeps unsynced writes must recover it, not call
// it tampering.
func TestOpenStampReachesDiskThreeAhead(t *testing.T) {
	env := newPipeEnv(t, nil)
	s := env.open(t)
	hw0 := env.hw(t)
	_, _, doneA, doneX := overlapTwoRounds(t, env, s)
	y := allocID(t, s)
	doneY := env.commit(s, "Y", y, "y1")
	waitWaiters(s, 3)
	if s.stampCtr != hw0+hardenDepth+1 {
		t.Fatalf("newest stamp %d with two rounds in flight over counter %d, want %d", s.stampCtr, hw0, hw0+hardenDepth+1)
	}
	// A nondurable bulk write goes through to the file, flushing Y's
	// buffered commit record ahead of itself.
	bulk := s.NewBatch()
	bulk.Write(allocID(t, s), make([]byte, writeBehindCap))
	if err := s.Commit(bulk, false); err != nil {
		t.Fatalf("bulk commit: %v", err)
	}

	// Power loss that keeps everything written: no op completes any more.
	env.fs.SetWriteBudget(0)
	env.counter.fail.Store(true)
	env.tl.open()
	for _, done := range []<-chan error{doneA, doneX, doneY} {
		if err := <-done; err == nil {
			t.Fatal("a commit was acknowledged across the crash")
		}
	}
	env.fs.SetWriteBudget(-1)
	env.counter.fail.Store(false)
	s2 := env.open(t)
	defer s2.Close()
	wantRead(t, s2, y, "y1")
	if got := env.hw(t); got != hw0+hardenDepth+1 {
		t.Fatalf("counter %d after recovery, want %d: caught up through all three stamps", got, hw0+hardenDepth+1)
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}

// TestCrashSweepOverlappedRounds crashes two overlapped rounds at every
// write and sync boundary — the log's and the file-emulated counter's — in
// the fixed order flush A, sync A, flush X, sync X, advance A, advance X,
// so "round N+1's log synced, round N's advance not yet" is one of the
// states swept. Under both power-loss flavors every recovery must succeed
// and yield a log-order prefix holding every acknowledged commit, with the
// counter caught up to the newest durable stamp.
func TestCrashSweepOverlappedRounds(t *testing.T) {
	run := func(t *testing.T, budget int64, loseUnsynced bool) (used int64) {
		t.Helper()
		env := newPipeEnv(t, func(fs *platform.FaultStore) platform.OneWayCounter {
			c, err := platform.NewFileCounter(fs, "counter")
			if err != nil {
				t.Fatalf("NewFileCounter: %v", err)
			}
			return c
		})
		s := env.open(t)
		base := allocWrite(t, s, []byte("base"))
		a, x := allocID(t, s), allocID(t, s)
		tl := env.tl
		tl.hold("sync", "incr")
		env.fs.SetWriteBudget(budget)

		// The script of overlapTwoRounds and its release, abandoned — every
		// gate opened — the moment a commit returns before its time, which
		// only the crash can cause.
		doneA := env.commit(s, "A", a, "a1")
		var doneX <-chan error
		alive := tl.await("sync>", 1, 0)
		if alive {
			doneX = env.commit(s, "X", x, "x1")
			waitWaiters(s, 2)
			tl.release("sync")
			alive = tl.await("incr>", 1, 0) && tl.await("sync>", 2, 0)
		}
		if alive {
			tl.release("sync")
			tl.await("sync<", 2, 0)
			tl.release("incr")
			tl.await("done:A", 1, 1)
			if tl.await("incr>", 2, 1) {
				tl.release("incr")
			}
		}
		tl.open()
		errA := <-doneA
		var errX error = platform.ErrCrashed
		if doneX != nil {
			errX = <-doneX
		}
		used = budget - env.fs.WriteOps()

		if loseUnsynced {
			env.mem.Crash()
		}
		env.fs.SetWriteBudget(-1)
		fc, err := platform.NewFileCounter(env.fs, "counter")
		if err != nil {
			t.Fatalf("budget %d: reopening the counter: %v", budget, err)
		}
		env.cfg.Counter = fc
		s2, err := Open(env.cfg)
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v (A: %v, X: %v)", budget, err, errA, errX)
		}
		defer s2.Close()
		wantRead(t, s2, base, "base")
		_, missA := s2.Read(a)
		_, missX := s2.Read(x)
		switch {
		case errA == nil && missA != nil:
			t.Fatalf("budget %d: acknowledged commit A lost: %v", budget, missA)
		case errX == nil && missX != nil:
			t.Fatalf("budget %d: acknowledged commit X lost: %v", budget, missX)
		case missX == nil && missA != nil:
			t.Fatalf("budget %d: X survived without A: not a prefix of the log", budget)
		}
		if hw, _ := fc.Read(); hw != s2.stampCtr {
			t.Fatalf("budget %d: counter %d, newest durable stamp %d after recovery", budget, hw, s2.stampCtr)
		}
		if err := s2.Verify(); err != nil {
			t.Fatalf("budget %d: Verify after recovery: %v", budget, err)
		}
		return used
	}
	for _, lose := range []bool{true, false} {
		t.Run(fmt.Sprintf("loseUnsynced=%v", lose), func(t *testing.T) {
			const dry = int64(1) << 40
			used := run(t, dry, lose)
			if used != 8 {
				t.Fatalf("two overlapped rounds cost %d mutating device operations, want 8: two log flushes, two log syncs, two counter writes, two counter syncs", used)
			}
			for budget := int64(0); budget <= used; budget++ {
				run(t, budget, lose)
			}
		})
	}
}

// TestPipelineStressQuiesce races four durable committers against
// Checkpoint, the cleaner and finally Close. At quiesce the hardware
// counter equals the newest durable stamp, and every acknowledged commit
// survives losing every unsynced write.
func TestPipelineStressQuiesce(t *testing.T) {
	const committers = 4
	rounds := 150
	if testing.Short() {
		rounds = 40
	}
	env := newTestEnv(t, "aes-sha256")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.CheckpointBytes = 16 << 10
	s := env.open(t)
	env.fs.SetLoseUnsynced(true)
	cids := make([]ChunkID, committers)
	for i := range cids {
		cids[i] = allocWrite(t, s, []byte("v0000"))
	}

	acked := make([]int, committers)     // newest acknowledged version per chunk
	attempted := make([]int, committers) // newest version handed to Commit
	var wg sync.WaitGroup
	quarter := make(chan struct{}, 2*committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { quarter <- struct{}{} }() // if it ended before the quarter mark
			for v := 1; v <= rounds; v++ {
				if v == rounds/4 {
					quarter <- struct{}{}
				}
				attempted[i] = v
				b := s.NewBatch()
				b.Write(cids[i], []byte(fmt.Sprintf("v%04d", v)))
				err := s.Commit(b, true)
				switch {
				case err == nil:
					acked[i] = v
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("committer %d v%d: %v", i, v, err)
					return
				}
			}
		}(i)
	}
	stop := make(chan struct{})
	maintDone := make(chan struct{})
	go func() {
		defer close(maintDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Checkpoint: %v", err)
				return
			}
			if err := s.Clean(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Clean: %v", err)
				return
			}
		}
	}()
	for i := 0; i < committers; i++ {
		<-quarter
	}
	if err := s.Close(); err != nil { // lands mid-run, under the committers
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	wg.Wait()
	<-maintDone
	if hw, _ := env.counter.Read(); hw != s.stampCtr {
		t.Fatalf("at quiesce the counter is %d, the newest durable stamp %d", hw, s.stampCtr)
	}

	if err := env.fs.CrashLoseUnsynced(); err != nil {
		t.Fatalf("CrashLoseUnsynced: %v", err)
	}
	s2 := env.open(t)
	defer s2.Close()
	for i, cid := range cids {
		got, err := s2.Read(cid)
		if err != nil {
			t.Fatalf("Read(%d) after crash: %v", cid, err)
		}
		var v int
		if _, err := fmt.Sscanf(string(got), "v%04d", &v); err != nil || v < acked[i] || v > attempted[i] {
			t.Fatalf("chunk %d recovered as %q, want a version in [%d, %d]", cid, got, acked[i], attempted[i])
		}
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}
