package objectstore

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tdb/internal/chunkstore"
	"tdb/internal/lru"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Meter mirrors the paper's running example (Figure 4): a usage meter with
// view and print counts.
type Meter struct {
	ID         int32
	ViewCount  int32
	PrintCount int32
}

const meterClass ClassID = 1001

func (m *Meter) ClassID() ClassID { return meterClass }
func (m *Meter) Pickle(p *Pickler) {
	p.Int32(m.ID)
	p.Int32(m.ViewCount)
	p.Int32(m.PrintCount)
}
func (m *Meter) Unpickle(u *Unpickler) error {
	m.ID = u.Int32()
	m.ViewCount = u.Int32()
	m.PrintCount = u.Int32()
	return u.Err()
}

// Profile is the paper's root object holding meter references (Figure 4).
type Profile struct {
	Meters []ObjectID
}

const profileClass ClassID = 1002

func (pr *Profile) ClassID() ClassID { return profileClass }
func (pr *Profile) Pickle(p *Pickler) {
	p.ObjectIDs(pr.Meters)
}
func (pr *Profile) Unpickle(u *Unpickler) error {
	pr.Meters = u.ObjectIDs()
	return u.Err()
}

// GobThing exercises the gob convenience pickler.
type GobThing struct {
	Data map[string]int
}

const gobThingClass ClassID = 1003

func (g *GobThing) ClassID() ClassID { return gobThingClass }
func (g *GobThing) Pickle(p *Pickler) {
	if err := GobPickle(p, g.Data); err != nil {
		panic(err)
	}
}
func (g *GobThing) Unpickle(u *Unpickler) error {
	return GobUnpickle(u, &g.Data)
}

func testRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(meterClass, func() Object { return &Meter{} })
	reg.Register(profileClass, func() Object { return &Profile{} })
	reg.Register(gobThingClass, func() Object { return &GobThing{} })
	return reg
}

type osEnv struct {
	mem     *platform.MemStore
	counter *platform.MemCounter
	suite   sec.Suite
	pool    *lru.Pool
	cfg     Config
}

func newOSEnv(t *testing.T) *osEnv {
	t.Helper()
	suite, err := sec.NewSuite("3des-sha1", []byte("objectstore-test-secret-01234567"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	e := &osEnv{
		mem:     platform.NewMemStore(),
		counter: platform.NewMemCounter(),
		suite:   suite,
		pool:    lru.NewPool(4 << 20),
	}
	e.cfg = Config{
		Registry:    testRegistry(),
		LockTimeout: 50 * time.Millisecond,
	}
	return e
}

func (e *osEnv) open(t *testing.T) *Store {
	t.Helper()
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:      e.mem,
		Counter:    e.counter,
		Suite:      e.suite,
		UseCounter: true,
		CachePool:  e.pool,
	})
	if err != nil {
		t.Fatalf("chunkstore.Open: %v", err)
	}
	cfg := e.cfg
	cfg.Chunks = cs
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("objectstore.Open: %v", err)
	}
	return s
}

func TestInsertOpenCommit(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	t1 := s.Begin()
	oid, err := t1.Insert(&Meter{ID: 7, ViewCount: 1})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := t1.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	t2 := s.Begin()
	ref, err := OpenReadonly[*Meter](t2, oid)
	if err != nil {
		t.Fatalf("OpenReadonly: %v", err)
	}
	m := ref.Deref()
	if m.ID != 7 || m.ViewCount != 1 {
		t.Fatalf("read back: %+v", m)
	}
	t2.Commit(false)
}

func TestPaperFigure4Scenario(t *testing.T) {
	// Reproduces the paper's Figure 4 usage: insert a meter into a root
	// profile, then increment its view count in a second transaction.
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	t1 := s.Begin()
	profileID, err := t1.Insert(&Profile{})
	if err != nil {
		t.Fatalf("insert profile: %v", err)
	}
	if err := t1.SetRoot(profileID); err != nil {
		t.Fatalf("SetRoot: %v", err)
	}
	meterID, err := t1.Insert(&Meter{ID: 1})
	if err != nil {
		t.Fatalf("insert meter: %v", err)
	}
	pref, err := OpenWritable[*Profile](t1, profileID)
	if err != nil {
		t.Fatalf("open profile: %v", err)
	}
	pref.Deref().Meters = append(pref.Deref().Meters, meterID)
	if err := t1.Commit(true); err != nil {
		t.Fatalf("commit t1: %v", err)
	}

	// Second transaction: navigate from the root, increment view count.
	t2 := s.Begin()
	rootID, _ := t2.Root()
	if rootID != profileID {
		t.Fatalf("root: %d, want %d", rootID, profileID)
	}
	profile, err := OpenReadonly[*Profile](t2, rootID)
	if err != nil {
		t.Fatalf("open root: %v", err)
	}
	mid := profile.Deref().Meters[0]
	meter, err := OpenWritable[*Meter](t2, mid)
	if err != nil {
		t.Fatalf("open meter: %v", err)
	}
	meter.Deref().ViewCount++
	if err := t2.Commit(true); err != nil {
		t.Fatalf("commit t2: %v", err)
	}

	t3 := s.Begin()
	check, _ := OpenReadonly[*Meter](t3, meterID)
	if check.Deref().ViewCount != 1 {
		t.Fatalf("view count: %d", check.Deref().ViewCount)
	}
	t3.Abort()
}

func TestRootPersistsAcrossReopen(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{ID: 42})
	t1.SetRoot(oid)
	if err := t1.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	s.Close()

	s2 := e.open(t)
	defer s2.Close()
	if root := s2.Root(); root != oid {
		t.Fatalf("root after reopen: %d, want %d", root, oid)
	}
	t2 := s2.Begin()
	ref, err := OpenReadonly[*Meter](t2, s2.Root())
	if err != nil || ref.Deref().ID != 42 {
		t.Fatalf("read root object: %v", err)
	}
	t2.Abort()
}

func TestAbortRollsBack(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()

	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{ID: 1, ViewCount: 10})
	if err := t1.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	t2 := s.Begin()
	ref, _ := OpenWritable[*Meter](t2, oid)
	ref.Deref().ViewCount = 999
	t2.Abort()

	t3 := s.Begin()
	check, err := OpenReadonly[*Meter](t3, oid)
	if err != nil {
		t.Fatalf("open after abort: %v", err)
	}
	if got := check.Deref().ViewCount; got != 10 {
		t.Fatalf("aborted write leaked: ViewCount=%d", got)
	}
	t3.Abort()
}

func TestAbortedInsertReleasesID(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{})
	t1.Abort()

	t2 := s.Begin()
	if _, err := t2.OpenReadonly(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open aborted insert: %v", err)
	}
	// The id is recycled for the next insert.
	oid2, _ := t2.Insert(&Meter{})
	if oid2 != oid {
		t.Fatalf("id not recycled: %d vs %d", oid2, oid)
	}
	t2.Commit(true)
}

func TestRemove(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{ID: 5})
	t1.Commit(true)

	t2 := s.Begin()
	if err := t2.Remove(oid); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	// Within the same transaction the object is gone.
	if _, err := t2.OpenReadonly(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open after remove in txn: %v", err)
	}
	if err := t2.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	t3 := s.Begin()
	if _, err := t3.OpenReadonly(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open after removal: %v", err)
	}
	t3.Abort()
}

func TestRemoveAbortKeepsObject(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{ID: 5})
	t1.Commit(true)

	t2 := s.Begin()
	t2.Remove(oid)
	t2.Abort()

	t3 := s.Begin()
	if _, err := t3.OpenReadonly(oid); err != nil {
		t.Fatalf("object should survive aborted remove: %v", err)
	}
	t3.Abort()
}

func TestRefInvalidAfterTxnEnd(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{})
	t1.Commit(true)

	t2 := s.Begin()
	ref, _ := OpenReadonly[*Meter](t2, oid)
	t2.Commit(false)
	if ref.Valid() {
		t.Fatal("ref valid after commit")
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("deref of stale ref did not panic")
		} else if err, ok := r.(error); !ok || !errors.Is(err, ErrTxnDone) {
			t.Fatalf("panic value: %v", r)
		}
	}()
	ref.Deref()
}

func TestWrongClassRejected(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{})
	t1.Commit(true)

	t2 := s.Begin()
	if _, err := OpenReadonly[*Profile](t2, oid); !errors.Is(err, ErrWrongClass) {
		t.Fatalf("cross-class open: %v", err)
	}
	// The correctly typed open still works in the same transaction.
	if _, err := OpenReadonly[*Meter](t2, oid); err != nil {
		t.Fatalf("typed open: %v", err)
	}
	t2.Abort()
}

func TestTxnDoneErrors(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{})
	t1.Commit(true)
	if _, err := t1.Insert(&Meter{}); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Insert after commit: %v", err)
	}
	if _, err := t1.OpenReadonly(oid); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Open after commit: %v", err)
	}
	if err := t1.Remove(oid); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Remove after commit: %v", err)
	}
	if err := t1.Commit(true); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double Commit: %v", err)
	}
	t1.Abort() // no-op, must not panic
}

func TestGobPickling(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	t1 := s.Begin()
	oid, err := t1.Insert(&GobThing{Data: map[string]int{"plays": 3, "skips": 1}})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	t1.Commit(true)
	s.Close()

	s2 := e.open(t)
	defer s2.Close()
	t2 := s2.Begin()
	ref, err := OpenReadonly[*GobThing](t2, oid)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if ref.Deref().Data["plays"] != 3 || ref.Deref().Data["skips"] != 1 {
		t.Fatalf("gob round trip: %+v", ref.Deref().Data)
	}
	t2.Abort()
}

func TestConcurrentTransactionsSerialize(t *testing.T) {
	e := newOSEnv(t)
	e.cfg.LockTimeout = 2 * time.Second
	s := e.open(t)
	defer s.Close()
	t0 := s.Begin()
	oid, _ := t0.Insert(&Meter{})
	t0.Commit(true)

	// Many goroutines increment the same counter under exclusive locks; the
	// final count must equal the number of increments.
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				txn := s.Begin()
				ref, err := OpenWritable[*Meter](txn, oid)
				if err != nil {
					txn.Abort()
					errs <- err
					return
				}
				ref.Deref().ViewCount++
				if err := txn.Commit(true); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker: %v", err)
	}
	tc := s.Begin()
	ref, _ := OpenReadonly[*Meter](tc, oid)
	if got := ref.Deref().ViewCount; got != workers*rounds {
		t.Fatalf("lost updates: %d, want %d", got, workers*rounds)
	}
	tc.Abort()
}

func TestLockTimeoutBreaksDeadlock(t *testing.T) {
	e := newOSEnv(t)
	e.cfg.LockTimeout = 60 * time.Millisecond
	s := e.open(t)
	defer s.Close()
	t0 := s.Begin()
	a, _ := t0.Insert(&Meter{ID: 1})
	b, _ := t0.Insert(&Meter{ID: 2})
	t0.Commit(true)

	// t1 locks a then wants b; t2 locks b then wants a. One of them must
	// time out rather than hang forever.
	t1 := s.Begin()
	t2 := s.Begin()
	if _, err := t1.OpenWritable(a); err != nil {
		t.Fatalf("t1 open a: %v", err)
	}
	if _, err := t2.OpenWritable(b); err != nil {
		t.Fatalf("t2 open b: %v", err)
	}
	res := make(chan error, 2)
	go func() { _, err := t1.OpenWritable(b); res <- err }()
	go func() { _, err := t2.OpenWritable(a); res <- err }()
	err1 := <-res
	err2 := <-res
	timeouts := 0
	if errors.Is(err1, ErrLockTimeout) {
		timeouts++
	}
	if errors.Is(err2, ErrLockTimeout) {
		timeouts++
	}
	if timeouts == 0 {
		t.Fatalf("deadlock not broken: %v, %v", err1, err2)
	}
	t1.Abort()
	t2.Abort()
}

func TestSharedLocksAllowConcurrentReaders(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	t0 := s.Begin()
	oid, _ := t0.Insert(&Meter{ID: 9})
	t0.Commit(true)

	t1 := s.Begin()
	t2 := s.Begin()
	if _, err := t1.OpenReadonly(oid); err != nil {
		t.Fatalf("t1 read: %v", err)
	}
	if _, err := t2.OpenReadonly(oid); err != nil {
		t.Fatalf("t2 concurrent read: %v", err)
	}
	// A writer must block (and time out) while readers hold the lock.
	t3 := s.Begin()
	if _, err := t3.OpenWritable(oid); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("writer against readers: %v", err)
	}
	t1.Abort()
	t2.Abort()
	// Now the writer can proceed.
	if _, err := t3.OpenWritable(oid); err != nil {
		t.Fatalf("writer after readers released: %v", err)
	}
	t3.Abort()
}

func TestLockUpgrade(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	t0 := s.Begin()
	oid, _ := t0.Insert(&Meter{})
	t0.Commit(true)

	t1 := s.Begin()
	if _, err := t1.OpenReadonly(oid); err != nil {
		t.Fatalf("read: %v", err)
	}
	// Upgrade shared → exclusive within the same transaction.
	ref, err := OpenWritable[*Meter](t1, oid)
	if err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	ref.Deref().ViewCount = 3
	if err := t1.Commit(true); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func TestDisableLocking(t *testing.T) {
	e := newOSEnv(t)
	e.cfg.DisableLocking = true
	s := e.open(t)
	defer s.Close()
	t0 := s.Begin()
	oid, _ := t0.Insert(&Meter{})
	t0.Commit(true)

	// Two transactions may open the same object writable without blocking.
	t1 := s.Begin()
	t2 := s.Begin()
	if _, err := t1.OpenWritable(oid); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if _, err := t2.OpenWritable(oid); err != nil {
		t.Fatalf("t2 (locking disabled): %v", err)
	}
	t1.Abort()
	t2.Abort()
}

func TestReadonlyMutationCheck(t *testing.T) {
	e := newOSEnv(t)
	e.cfg.ReadonlyChecks = true
	s := e.open(t)
	defer s.Close()
	t0 := s.Begin()
	oid, _ := t0.Insert(&Meter{ID: 1})
	t0.Commit(true)

	t1 := s.Begin()
	ref, _ := OpenReadonly[*Meter](t1, oid)
	if s.versions.decoded.get(oid) != Object(ref.Deref()) {
		t.Fatal("2PL read-only open did not return the decode table's shared instance")
	}
	ref.Deref().ViewCount = 77 // illegal mutation through a read-only view
	if err := t1.Commit(true); !errors.Is(err, ErrReadonlyViolation) {
		t.Fatalf("mutation through readonly ref: %v", err)
	}
	// The poisoned shared instance was evicted: neither a 2PL open nor a
	// fresh snapshot sees the mutation, and committed state is unharmed.
	t2 := s.Begin()
	check, err := OpenReadonly[*Meter](t2, oid)
	if err != nil || check.Deref().ViewCount != 0 {
		t.Fatalf("state after violation: %v, %v", check.Deref(), err)
	}
	t2.Abort()
	ro := s.BeginReadOnly()
	snap, err := OpenReadonly[*Meter](ro, oid)
	if err != nil || snap.Deref().ViewCount != 0 {
		t.Fatalf("snapshot after violation: %v, %v", snap.Deref(), err)
	}
	ro.Abort()
}

func TestCacheEvictionRefetches(t *testing.T) {
	e := newOSEnv(t)
	e.pool = lru.NewPool(2 << 10) // tiny map-node budget forces eviction
	s := e.open(t)
	defer s.Close()
	var ids []ObjectID
	t0 := s.Begin()
	for i := 0; i < 100; i++ {
		oid, err := t0.Insert(&Meter{ID: int32(i)})
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		ids = append(ids, oid)
	}
	if err := t0.Commit(true); err != nil {
		t.Fatalf("commit: %v", err)
	}
	t1 := s.Begin()
	for i, oid := range ids {
		ref, err := OpenReadonly[*Meter](t1, oid)
		if err != nil {
			t.Fatalf("open %d under cache pressure: %v", oid, err)
		}
		if ref.Deref().ID != int32(i) {
			t.Fatalf("object %d: ID=%d", oid, ref.Deref().ID)
		}
	}
	t1.Abort()
}

func TestUnknownClassRejected(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{})
	t1.Commit(true)
	s.Close()

	// Reopen with a registry lacking the meter class.
	e.cfg.Registry = NewRegistry()
	s2 := e.open(t)
	defer s2.Close()
	t2 := s2.Begin()
	if _, err := t2.OpenReadonly(oid); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("unknown class: %v", err)
	}
	t2.Abort()
}

func TestCrashRecoversCommittedObjects(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{ID: 3, ViewCount: 5})
	if err := t1.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	t2 := s.Begin()
	ref, _ := OpenWritable[*Meter](t2, oid)
	ref.Deref().ViewCount = 100
	if err := t2.Commit(false); err != nil { // nondurable
		t.Fatalf("nondurable commit: %v", err)
	}
	e.mem.Crash()
	s2 := e.open(t)
	defer s2.Close()
	t3 := s2.Begin()
	check, err := OpenReadonly[*Meter](t3, oid)
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	if got := check.Deref().ViewCount; got != 5 {
		t.Fatalf("after crash: ViewCount=%d, want durable 5", got)
	}
	t3.Abort()
}

func TestPicklerRoundTrip(t *testing.T) {
	p := NewPickler()
	p.Uint32(7)
	p.Uint64(1 << 40)
	p.Int32(-5)
	p.Int64(-1 << 40)
	p.Int(-3)
	p.Bool(true)
	p.Bool(false)
	p.Byte(0xAB)
	p.Float64(3.25)
	p.BytesVal([]byte{1, 2, 3})
	p.String("héllo")
	p.ObjectID(99)
	p.ObjectIDs([]ObjectID{4, 5, 6})
	p.RawBytes([]byte{9, 9})

	u := NewUnpickler(p.Bytes())
	if u.Uint32() != 7 || u.Uint64() != 1<<40 || u.Int32() != -5 || u.Int64() != -1<<40 || u.Int() != -3 {
		t.Fatal("integers")
	}
	if !u.Bool() || u.Bool() || u.Byte() != 0xAB || u.Float64() != 3.25 {
		t.Fatal("bool/byte/float")
	}
	if b := u.BytesVal(); len(b) != 3 || b[2] != 3 {
		t.Fatal("bytes")
	}
	if u.String() != "héllo" || u.ObjectID() != 99 {
		t.Fatal("string/oid")
	}
	if ids := u.ObjectIDs(); len(ids) != 3 || ids[1] != 5 {
		t.Fatal("oids")
	}
	if rb := u.RawBytes(2); len(rb) != 2 || rb[0] != 9 {
		t.Fatal("raw")
	}
	if err := u.Err(); err != nil || u.Remaining() != 0 {
		t.Fatalf("final state: %v, %d left", u.Err(), u.Remaining())
	}
}

func TestUnpicklerOverrun(t *testing.T) {
	u := NewUnpickler([]byte{0, 0})
	u.Uint64()
	if u.Err() == nil {
		t.Fatal("overrun not detected")
	}
	// Sticky error: subsequent reads are zero-valued, no panic.
	if u.Uint32() != 0 || u.String() != "" || u.Bool() {
		t.Fatal("post-error reads not zero")
	}
}

func TestDuplicateClassRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(1, func() Object { return &Meter{} })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Register(1, func() Object { return &Meter{} })
}

func TestManyObjectsAcrossReopen(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	var ids []ObjectID
	t1 := s.Begin()
	for i := 0; i < 300; i++ {
		oid, err := t1.Insert(&Meter{ID: int32(i), ViewCount: int32(i * 2)})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		ids = append(ids, oid)
	}
	if err := t1.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	s.Close()
	s2 := e.open(t)
	defer s2.Close()
	t2 := s2.Begin()
	for i, oid := range ids {
		ref, err := OpenReadonly[*Meter](t2, oid)
		if err != nil {
			t.Fatalf("open %d: %v", oid, err)
		}
		if ref.Deref().ID != int32(i) || ref.Deref().ViewCount != int32(i*2) {
			t.Fatalf("object %d: %+v", oid, ref.Deref())
		}
	}
	t2.Abort()
}

func TestInsertRemoveSameTxn(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	t1 := s.Begin()
	oid, _ := t1.Insert(&Meter{})
	if err := t1.Remove(oid); err != nil {
		t.Fatalf("remove fresh insert: %v", err)
	}
	if err := t1.Commit(true); err != nil {
		t.Fatalf("commit: %v", err)
	}
	t2 := s.Begin()
	if _, err := t2.OpenReadonly(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open insert+remove: %v", err)
	}
	t2.Abort()
}

func TestCommitFailureKeepsTxnUsable(t *testing.T) {
	e := newOSEnv(t)
	s := e.open(t)
	defer s.Close()
	t1 := s.Begin()
	if _, err := t1.Insert(&Meter{}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// There is no easy injected failure here without a fault store; this
	// test documents that Commit returning an error leaves Active true.
	if !t1.Active() {
		t.Fatal("txn should be active before commit")
	}
	t1.Abort()
}

func TestClassIDForAndRegisterNamed(t *testing.T) {
	a := ClassIDFor("myapp.Meter")
	b := ClassIDFor("myapp.Profile")
	if a == b {
		t.Fatal("distinct names collided")
	}
	if a != ClassIDFor("myapp.Meter") {
		t.Fatal("ClassIDFor not deterministic")
	}
	if a&0x80000000 != 0 || b&0x80000000 != 0 {
		t.Fatal("derived id intrudes on the reserved range")
	}
	reg := NewRegistry()
	id := reg.RegisterNamed("myapp.Meter", func() Object { return &Meter{} })
	if id != a || !reg.Has(a) {
		t.Fatalf("RegisterNamed: id=%d", id)
	}
	// Same name twice panics (collision surfaced at startup).
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterNamed did not panic")
		}
	}()
	reg.RegisterNamed("myapp.Meter", func() Object { return &Meter{} })
}
