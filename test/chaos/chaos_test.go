// Package chaos_test is the full-stack chaos oracle's entry point:
//
//	go test ./test/chaos/ -args -chaos.seed=42 -chaos.actions=500
//
// One seeded run drives a real tdb.DB through randomized commits, snapshot
// scans, index queries, backups, restores, scrubs, repairs, checkpoints,
// cleans, crashes (budgets, torn tails, lost unsynced writes), bit-rot, and
// restarts, checking global invariants against a shadow model after every
// recovery. The same seed replays a byte-identical action trace; any
// failure prints a one-line `make chaos CHAOS_SEED=… CHAOS_ACTIONS=…`
// repro plus the failing trace suffix.
package chaos_test

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tdb"
	"tdb/internal/chaos"
	"tdb/internal/platform"
)

var (
	chaosSeed    = flag.Uint64("chaos.seed", 42, "seed for the chaos action generator and fault schedule")
	chaosActions = flag.Int("chaos.actions", 140, "number of generator actions per chaos run")
)

// TestChaosOracle is the main seeded run, on a real on-disk DirStore.
func TestChaosOracle(t *testing.T) {
	res, err := chaos.Run(chaos.Config{
		Seed:    *chaosSeed,
		Actions: *chaosActions,
		Dir:     t.TempDir(),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos run failed:\n%v", err)
	}
	t.Logf("chaos: %d actions, %d commits (%d not durable), %d crashes/%d recoveries, %d restarts, %d storms, %d read-storms, %d commit-storms, %d backups, %d restores, %d tamper checks",
		res.Actions, res.Commits, res.NotDurable, res.Crashes, res.Recoveries, res.Restarts,
		res.Storms, res.ReadStorms, res.CommitStorms, res.Backups, res.Restores, res.TamperChecks)
	t.Logf("chaos: injector saw %d reads, %d writes; injected %d transient errors, flipped %d bits; %d read slow paths",
		res.FaultStats.Reads, res.FaultStats.Writes, res.FaultStats.TransientErrors, res.FaultStats.BitsFlipped, res.ReadSlowPaths)
	// A run long enough to matter must actually have exercised the chaos
	// machinery — a silently idle generator is a regression too.
	if *chaosActions >= 100 {
		if res.Commits == 0 || res.Crashes == 0 || res.Recoveries == 0 {
			t.Fatalf("generator went idle: %d commits, %d crashes, %d recoveries", res.Commits, res.Crashes, res.Recoveries)
		}
		if res.Storms+res.TamperChecks == 0 {
			t.Fatalf("no bit-rot storms or tamper checks in %d actions", res.Actions)
		}
	}
	// The run's map-node budget evicts nodes, so reads must fault them back
	// in; none means the fault-in path went unexercised.
	if *chaosActions >= 400 && res.ReadSlowPaths == 0 {
		t.Fatalf("no read slow paths in %d actions", res.Actions)
	}
	// Read storms have a ~4% slot; on a long run their absence means the
	// concurrent-reader schedule stopped being exercised.
	if *chaosActions >= 400 && res.ReadStorms == 0 {
		t.Fatalf("no read storms in %d actions", res.Actions)
	}
	// Commit storms have a ~3% slot; they are the only action that shows the
	// oracle overlapped harden rounds — the sequenced trace commits one
	// transaction at a time, so every round it produces is a round of one.
	if *chaosActions >= 400 && res.CommitStorms == 0 {
		t.Fatalf("no commit storms in %d actions", res.Actions)
	}
	// Failing-sync windows have the same ~4% slot; without them the oracle
	// never sees ErrNotDurable, one third of the commit contract.
	if *chaosActions >= 400 && res.NotDurable == 0 {
		t.Fatalf("no ErrNotDurable commit in %d actions", res.Actions)
	}
}

// TestChaosReplayDeterminism reruns the same seed in a different directory
// and requires a byte-identical action trace — the property that makes the
// repro line on a failure actually reproduce it.
func TestChaosReplayDeterminism(t *testing.T) {
	n := *chaosActions
	if n > 400 {
		n = 400
	}
	run := func(seed uint64) []string {
		t.Helper()
		res, err := chaos.Run(chaos.Config{Seed: seed, Actions: n, Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("chaos run (seed %d) failed:\n%v", seed, err)
		}
		return res.Trace
	}
	a := run(*chaosSeed)
	b := run(*chaosSeed)
	// The concurrent actions must replay too, not just stay out of the way.
	if n >= 400 && !strings.Contains(strings.Join(a, "\n"), " commit-storm members=") {
		t.Fatalf("no commit storm in the %d-action replay trace", n)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different trace lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at trace line %d:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
	c := run(*chaosSeed + 1)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("seed %d and %d produced identical %d-line traces", *chaosSeed, *chaosSeed+1, len(a))
	}
}

func registerObj() *tdb.Registry {
	reg := tdb.NewRegistry()
	reg.Register((&chaos.Obj{}).ClassID(), func() tdb.Object { return &chaos.Obj{} })
	return reg
}

// TestChaosCrashMidRepair sweeps crash budgets across Repair itself: the
// per-package fault tests crash commits and restores, but never the healer.
// After a mid-repair power loss the database must reopen, and a second
// Scrub + Repair from the same backup must finish the job.
func TestChaosCrashMidRepair(t *testing.T) {
	byID := func() tdb.GenericIndexer {
		return tdb.NewIndexer("id", true, tdb.BTree,
			func(o *chaos.Obj) tdb.IntKey { return tdb.IntKey(o.ID) })
	}
	crashedOnce := false
	finishedOnce := false
	for budget := int64(1); budget <= 10; budget++ {
		store := platform.NewMemStore()
		fs := platform.NewFaultStore(store)
		fs.SetLoseUnsynced(true)
		arch := platform.NewMemArchive()
		opts := tdb.Options{
			Store:                 fs,
			Counter:               platform.NewMemCounter(),
			Secret:                []byte("crash-mid-repair-secret-01234567"),
			Suite:                 "aes-ctr-gmac",
			Registry:              registerObj(),
			Archive:               arch,
			DisableAutoClean:      true,
			DisableAutoCheckpoint: true,
		}
		db, err := tdb.Open(opts)
		if err != nil {
			t.Fatalf("budget %d: Open: %v", budget, err)
		}
		txn := db.Begin()
		col, err := txn.CreateCollection("meters", byID())
		if err != nil {
			t.Fatalf("budget %d: CreateCollection: %v", budget, err)
		}
		for i := int64(1); i <= 10; i++ {
			if _, err := col.Insert(&chaos.Obj{ID: i, Val: i * 100}); err != nil {
				t.Fatalf("budget %d: Insert: %v", budget, err)
			}
		}
		if err := txn.Commit(true); err != nil {
			t.Fatalf("budget %d: Commit: %v", budget, err)
		}
		if _, err := db.BackupFull(); err != nil {
			t.Fatalf("budget %d: BackupFull: %v", budget, err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("budget %d: Checkpoint: %v", budget, err)
		}

		// Capture two live ciphertexts, close, and rot them at rest.
		sn, err := db.Chunks().TakeSnapshot()
		if err != nil {
			t.Fatalf("budget %d: TakeSnapshot: %v", budget, err)
		}
		cts := map[tdb.ChunkID][]byte{}
		if err := sn.ForEach(func(cid tdb.ChunkID, hash, ct []byte) error {
			if cid > 2 {
				cts[cid] = append([]byte(nil), ct...)
			}
			return nil
		}); err != nil {
			t.Fatalf("budget %d: snapshot walk: %v", budget, err)
		}
		sn.Close()
		if err := db.Close(); err != nil {
			t.Fatalf("budget %d: Close: %v", budget, err)
		}
		rotted := 0
		for _, ct := range cts {
			if rotted == 2 {
				break
			}
			for name, data := range store.Snapshot() {
				if i := indexOf(data, ct); i >= 0 {
					if err := fs.FlipBit(name, int64(i+len(ct)/2), 3); err != nil {
						t.Fatalf("budget %d: FlipBit: %v", budget, err)
					}
					rotted++
					break
				}
			}
		}
		if rotted == 0 {
			t.Fatalf("budget %d: no live ciphertext found to rot", budget)
		}

		db, err = tdb.Open(opts)
		if err != nil {
			t.Fatalf("budget %d: reopen over rotten store: %v", budget, err)
		}
		report, err := db.Scrub()
		if err != nil {
			t.Fatalf("budget %d: Scrub: %v", budget, err)
		}
		if report.Clean() {
			t.Fatalf("budget %d: scrub missed %d rotted chunks", budget, rotted)
		}

		fs.SetWriteBudget(budget)
		res, err := db.Repair(report)
		switch {
		case err == nil:
			fs.SetWriteBudget(-1)
			finishedOnce = true
			if !res.Report.Clean() || len(res.Unrepairable) != 0 {
				t.Fatalf("budget %d: uncrashed repair incomplete: %+v", budget, res)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("budget %d: close after repair: %v", budget, err)
			}
			continue
		case !fs.Crashed():
			t.Fatalf("budget %d: Repair failed without crashing: %v", budget, err)
		}
		crashedOnce = true

		// Power loss mid-repair: unsynced heals are gone. Reopen and heal
		// again from the same backup.
		if err := fs.CrashLoseUnsynced(); err != nil {
			t.Fatalf("budget %d: CrashLoseUnsynced: %v", budget, err)
		}
		db2, err := tdb.Open(opts)
		if err != nil {
			t.Fatalf("budget %d: reopen after mid-repair crash: %v", budget, err)
		}
		report2, err := db2.Scrub()
		if err != nil {
			t.Fatalf("budget %d: re-scrub: %v", budget, err)
		}
		res2, err := db2.Repair(report2)
		if err != nil {
			t.Fatalf("budget %d: re-repair: %v", budget, err)
		}
		if !res2.Report.Clean() || len(res2.Unrepairable) != 0 {
			t.Fatalf("budget %d: re-repair incomplete: healed=%v unrepairable=%v", budget, res2.Healed, res2.Unrepairable)
		}
		if err := db2.Verify(); err != nil {
			t.Fatalf("budget %d: Verify after re-repair: %v", budget, err)
		}
		rt := db2.Begin()
		h, err := rt.ReadCollection("meters")
		if err != nil {
			t.Fatalf("budget %d: ReadCollection: %v", budget, err)
		}
		it, err := h.Query(byID())
		if err != nil {
			t.Fatalf("budget %d: Query: %v", budget, err)
		}
		got := 0
		for it.Next() {
			o, err := tdb.ReadAs[*chaos.Obj](it)
			if err != nil {
				t.Fatalf("budget %d: read after re-repair: %v", budget, err)
			}
			if o.Val != o.ID*100 {
				t.Fatalf("budget %d: object %d corrupted: val=%d", budget, o.ID, o.Val)
			}
			got++
		}
		it.Close()
		rt.Abort()
		if got != 10 {
			t.Fatalf("budget %d: %d objects after re-repair, want 10", budget, got)
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("budget %d: final close: %v", budget, err)
		}
	}
	if !crashedOnce {
		t.Fatal("budget sweep never crashed Repair mid-flight — widen the range")
	}
	if !finishedOnce {
		t.Fatal("budget sweep never let Repair finish — tighten the range")
	}
}

func indexOf(haystack, needle []byte) int {
	if len(needle) == 0 || len(haystack) < len(needle) {
		return -1
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j := range needle {
			if haystack[i+j] != needle[j] {
				continue outer
			}
		}
		return i
	}
	return -1
}

// TestChaosScrubVsGroupCommit races Scrub against live harden rounds:
// concurrent durable committers share log syncs while the scrubber
// walks the Merkle tree. Every scrub of the undamaged store must come back
// clean, and every committed increment must survive.
func TestChaosScrubVsGroupCommit(t *testing.T) {
	opts := tdb.Options{
		Store:    platform.NewMemStore(),
		Counter:  platform.NewMemCounter(),
		Secret:   []byte("scrub-vs-groupcommit-secret-0123"),
		Suite:    "aes-ctr-gmac",
		Registry: registerObj(),
	}
	db, err := tdb.Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	const writers = 4
	const rounds = 40
	oids := make([]tdb.ObjectID, writers)
	seed := db.BeginObject()
	for i := range oids {
		oid, err := seed.Insert(&chaos.Obj{ID: int64(i), Val: 0})
		if err != nil {
			t.Fatalf("seed insert: %v", err)
		}
		oids[i] = oid
	}
	if err := seed.Commit(true); err != nil {
		t.Fatalf("seed commit: %v", err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ot := db.BeginObject()
				ref, err := tdb.OpenWritable[*chaos.Obj](ot, oids[w])
				if err != nil {
					t.Errorf("writer %d: open: %v", w, err)
					ot.Abort()
					return
				}
				ref.Deref().Val++
				if err := ot.Commit(true); err != nil {
					t.Errorf("writer %d: commit: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		report, err := db.Scrub()
		if err != nil {
			t.Fatalf("scrub %d racing group commit: %v", i, err)
		}
		if !report.Clean() {
			t.Fatalf("scrub %d of undamaged store dirty: bad=%v map=%v", i, report.BadIDs(), report.MapDamage)
		}
		if i%5 == 4 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint racing group commit: %v", err)
			}
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	rt := db.BeginObjectReadOnly()
	for w, oid := range oids {
		ref, err := tdb.OpenReadonly[*chaos.Obj](rt, oid)
		if err != nil {
			t.Fatalf("final read writer %d: %v", w, err)
		}
		if got := ref.Deref().Val; got != rounds {
			t.Fatalf("writer %d: committed %d increments, read back %d", w, rounds, got)
		}
	}
	rt.Abort()
	if err := db.Verify(); err != nil {
		t.Fatalf("final Verify: %v", err)
	}
}
