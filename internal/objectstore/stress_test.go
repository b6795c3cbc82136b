package objectstore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdb/internal/chunkstore"
	"tdb/internal/lru"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// stressEnv is an object store over a fault-injecting memory store, for
// hammering the off-mutex commit pipeline under the race detector.
type stressEnv struct {
	mem    *platform.MemStore
	faults *platform.FaultStore
	ctr    *platform.MemCounter
	suite  sec.Suite
	pool   *lru.Pool
}

func newStressEnv(t *testing.T) *stressEnv {
	t.Helper()
	suite, err := sec.NewSuite("aes-sha256", []byte("stress-test-device-secret-012345"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	e := &stressEnv{
		mem:   platform.NewMemStore(),
		ctr:   platform.NewMemCounter(),
		suite: suite,
		pool:  lru.NewPool(4 << 20),
	}
	e.faults = platform.NewFaultStore(e.mem)
	return e
}

func (e *stressEnv) open(t *testing.T) *Store {
	t.Helper()
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:      e.faults,
		Counter:    e.ctr,
		Suite:      e.suite,
		UseCounter: true,
		CachePool:  e.pool,
		// Retries absorb the injected transient faults; the no-op sleep
		// keeps the test fast and deterministic.
		Retry: chunkstore.RetryPolicy{Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatalf("chunkstore.Open: %v", err)
	}
	s, err := Open(Config{
		Chunks:      cs,
		Registry:    testRegistry(),
		LockTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("objectstore.Open: %v", err)
	}
	return s
}

// TestCommitStressRace drives N goroutines through mixed durable and
// nondurable commits, aborts, lock contention, and transient storage
// faults, then checks that the committed history is serializable (every
// committed increment is reflected exactly once) and that the lock table
// retained no entries. Run under -race this also exercises the claim that
// stage-1 pickling and crypto are safe outside the store mutex: 2PL makes
// each transaction's read and write sets stable until commit.
func TestCommitStressRace(t *testing.T) {
	const (
		workers = 8
		iters   = 40
		objects = 6
	)
	e := newStressEnv(t)
	s := e.open(t)

	// Seed the shared objects.
	setup := s.Begin()
	oids := make([]ObjectID, objects)
	for i := range oids {
		oid, err := setup.Insert(&Meter{ID: int32(i)})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		oids[i] = oid
	}
	if err := setup.Commit(true); err != nil {
		t.Fatalf("setup Commit: %v", err)
	}

	// Every 13th chunk-store write fails twice before succeeding —
	// inside the default retry budget, so commits never actually
	// fail, but the retry path runs concurrently with everything.
	e.faults.SetTransientWrites(13, 2)

	// expected[j] counts committed increments of object j.
	expected := make([]atomic.Int64, objects)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := s.Begin()
				// Deterministic pseudo-random object choice; a
				// second object on some iterations creates multi-
				// object write sets and lock-ordering pressure.
				picks := []int{(w*7 + i*3) % objects}
				if (w+i)%3 == 0 {
					second := (w*5 + i*11) % objects
					if second != picks[0] {
						picks = append(picks, second)
					}
				}
				var touched []int
				abandoned := false
				for _, j := range picks {
					obj, err := txn.OpenWritable(oids[j])
					if err != nil {
						if !errors.Is(err, ErrLockTimeout) {
							t.Errorf("worker %d: OpenWritable: %v", w, err)
						}
						txn.Abort()
						abandoned = true
						break
					}
					obj.(*Meter).ViewCount++
					touched = append(touched, j)
				}
				if abandoned {
					continue
				}
				if i%7 == 3 {
					txn.Abort()
					continue
				}
				err := txn.Commit(i%3 == 0)
				if err != nil && !errors.Is(err, chunkstore.ErrMaintenance) {
					// The transaction is still active and nothing
					// was applied; give up on this iteration.
					t.Errorf("worker %d: Commit: %v", w, err)
					txn.Abort()
					continue
				}
				for _, j := range touched {
					expected[j].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	// A final durable commit hardens every nondurable commit above.
	closing := s.Begin()
	if err := closing.Commit(true); err != nil {
		t.Fatalf("hardening Commit: %v", err)
	}

	// Strict 2PL must have returned the lock table to empty.
	s.mu.Lock()
	leaked := len(s.locks.locks)
	s.mu.Unlock()
	if leaked != 0 {
		t.Errorf("lock table retains %d entries after all transactions ended", leaked)
	}

	// Serializability: each object's counter equals the number of
	// committed transactions that incremented it.
	check := func(s *Store, when string) {
		txn := s.Begin()
		defer txn.Abort()
		for j, oid := range oids {
			obj, err := txn.OpenReadonly(oid)
			if err != nil {
				t.Fatalf("%s: OpenReadonly(%d): %v", when, oid, err)
			}
			got := int64(obj.(*Meter).ViewCount)
			if want := expected[j].Load(); got != want {
				t.Errorf("%s: object %d: ViewCount = %d, want %d committed increments", when, j, got, want)
			}
		}
	}
	check(s, "before close")

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Recovery must reproduce exactly the committed state.
	reopened := e.open(t)
	defer reopened.Close()
	if err := reopened.Chunks().Verify(); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
	check(reopened, "after reopen")
}
