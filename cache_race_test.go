package tdb_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tdb"
	"tdb/internal/platform"
)

// Pair-sum fixture: records 2k and 2k+1 form pair k, and every committed
// state keeps each pair's Plays summing to racePairSum. Titles sort in ID
// order, so a title range covers whole pairs.
const (
	racePairs   = 256
	racePairSum = 1000
)

func raceTitle(id int) string { return fmt.Sprintf("rec-%05d", id) }

// TestConcurrentEvictingTransactions drives every reader and writer kind at
// once through tdb.Open with a 64 KiB CacheBytes, so location map nodes are
// evicted constantly while 2PL writers (spread uniformly over all records),
// snapshot readers and a prefetching range scanner run. Run under -race it
// guards the rule that the map-node pool has one owner: a pool shared with
// another layer's cache, touched under that layer's mutex, races here.
// Afterwards every pair must still hold its sum.
func TestConcurrentEvictingTransactions(t *testing.T) {
	reg := tdb.NewRegistry()
	reg.Register(songClass, func() tdb.Object { return &Song{} })
	db, err := tdb.Open(tdb.Options{
		Store:       platform.NewMemStore(),
		Counter:     platform.NewMemCounter(),
		Secret:      []byte("cache-race-test-secret-012345678"),
		Registry:    reg,
		CacheBytes:  64 << 10,
		LockTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	byID, byTitle := songByID(), songByTitle()
	txn := db.Begin()
	songs, err := txn.CreateCollection("songs", byID, byTitle)
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	for id := 0; id < 2*racePairs; id++ {
		if _, err := songs.Insert(&Song{ID: int64(id), Title: raceTitle(id), Plays: racePairSum / 2}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	run := 400 * time.Millisecond
	if testing.Short() {
		run = 150 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := make(map[string]int)
	var failure error
	actor := func(name string, seed int64, step func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := step(rng)
				if errors.Is(err, tdb.ErrLockTimeout) {
					continue
				}
				mu.Lock()
				if err != nil && failure == nil {
					failure = fmt.Errorf("%s: %w", name, err)
				}
				done[name]++
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		actor("writer", int64(10+i), func(rng *rand.Rand) error {
			return raceTransfer(db, byID, byTitle, rng.Intn(racePairs), int64(rng.Intn(50)), rng.Intn(8) == 0)
		})
		actor("reader", int64(20+i), func(rng *rand.Rand) error {
			return raceCheckPair(db, byID, rng.Intn(racePairs))
		})
	}
	actor("scanner", 30, func(rng *rand.Rand) error {
		lo := 2 * rng.Intn(racePairs-16)
		return raceScan(db, byTitle, rng.Intn(2) == 0, lo, lo+31)
	})
	time.Sleep(run)
	close(stop)
	wg.Wait()
	if failure != nil {
		t.Fatal(failure)
	}
	for _, name := range []string{"writer", "reader", "scanner"} {
		if done[name] == 0 {
			t.Fatalf("no %s transaction completed: %v", name, done)
		}
	}
	if err := raceScan(db, byTitle, false, 0, 2*racePairs-1); err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	t.Logf("completed transactions: %v", done)
}

// raceTransfer moves amount from record 2k to record 2k+1 in one 2PL
// transaction; a lock timeout aborts it for a retry.
func raceTransfer(db *tdb.DB, byID, byTitle tdb.GenericIndexer, k int, amount int64, durable bool) error {
	txn := db.Begin()
	h, err := txn.WriteCollection("songs", byID, byTitle)
	if err == nil {
		err = raceAdd(h, byID, 2*k, -amount)
	}
	if err == nil {
		err = raceAdd(h, byID, 2*k+1, amount)
	}
	if err == nil {
		return txn.Commit(durable)
	}
	txn.Abort()
	return err
}

func raceAdd(h *tdb.Collection, byID tdb.GenericIndexer, id int, delta int64) error {
	it, err := h.QueryExact(byID, tdb.IntKey(id))
	if err != nil {
		return err
	}
	if !it.Next() {
		it.Close()
		return fmt.Errorf("record %d missing", id)
	}
	s, err := tdb.WriteAs[*Song](it)
	if err == nil {
		s.Plays += delta
	}
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	return err
}

// raceCheckPair reads pair k through a snapshot transaction.
func raceCheckPair(db *tdb.DB, byID tdb.GenericIndexer, k int) error {
	txn := db.BeginReadOnly()
	defer txn.Abort()
	h, err := txn.ReadCollection("songs", byID)
	if err != nil {
		return err
	}
	var sum int64
	for _, id := range []int{2 * k, 2*k + 1} {
		s, err := lookupSong(h, byID, tdb.IntKey(id))
		if err != nil {
			return fmt.Errorf("record %d: %w", id, err)
		}
		sum += s.Plays
	}
	if sum != racePairSum {
		return fmt.Errorf("pair %d sums to %d, want %d", k, sum, racePairSum)
	}
	return nil
}

// raceScan walks records lo..hi (whole pairs) by title with prefetch on,
// through a snapshot or a 2PL transaction, and checks every pair's sum.
func raceScan(db *tdb.DB, byTitle tdb.GenericIndexer, snapshot bool, lo, hi int) error {
	txn := db.Begin()
	if snapshot {
		txn = db.BeginReadOnly()
	}
	defer txn.Abort()
	h, err := txn.ReadCollection("songs", byTitle)
	if err != nil {
		return err
	}
	it, err := h.QueryRange(byTitle, tdb.StringKey(raceTitle(lo)), tdb.StringKey(raceTitle(hi)))
	if err != nil {
		return err
	}
	defer it.Close()
	it.SetPrefetch(16)
	var n int
	var sum int64
	for it.Next() {
		s, err := tdb.ReadAs[*Song](it)
		if err != nil {
			return err
		}
		if s.ID != int64(lo+n) {
			return fmt.Errorf("scan position %d holds record %d", lo+n, s.ID)
		}
		sum += s.Plays
		if n++; n%2 == 0 {
			if sum != racePairSum {
				return fmt.Errorf("pair %d sums to %d, want %d", (lo+n)/2-1, sum, racePairSum)
			}
			sum = 0
		}
	}
	if n != hi-lo+1 {
		return fmt.Errorf("range %d..%d returned %d records", lo, hi, n)
	}
	return it.Close()
}
