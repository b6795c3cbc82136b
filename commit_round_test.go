package tdb_test

import (
	"testing"
	"time"

	"tdb"
	"tdb/internal/platform"
)

// hooked is a persistent class whose Pickle first runs an injectable hook,
// so a test can park or fail a commit inside the application's own code.
type hooked struct {
	N int64
	// pickling, when set, runs at the start of every Pickle.
	pickling func()
}

const hookedClass tdb.ClassID = 9002

func (h *hooked) ClassID() tdb.ClassID { return hookedClass }
func (h *hooked) Pickle(p *tdb.Pickler) {
	if h.pickling != nil {
		h.pickling()
	}
	p.Int64(h.N)
}
func (h *hooked) Unpickle(u *tdb.Unpickler) error {
	h.N = u.Int64()
	return u.Err()
}

// commitDeadline bounds a durable commit that nothing holds up. It is far
// above any real commit on a memory store; a commit that waits on another
// transaction's Pickle, or on the blocked clock, never meets it.
const commitDeadline = 10 * time.Second

// openHookedDB opens a database on a memory store whose retry clock blocks
// until the test ends: any commit that waits on a timer waits forever. It
// returns two durably committed objects.
func openHookedDB(t *testing.T) (*tdb.DB, tdb.ObjectID, tdb.ObjectID) {
	t.Helper()
	blocked := make(chan struct{})
	reg := tdb.NewRegistry()
	reg.Register(hookedClass, func() tdb.Object { return &hooked{} })
	db, err := tdb.Open(tdb.Options{
		Store:    platform.NewMemStore(),
		Counter:  platform.NewMemCounter(),
		Secret:   []byte("commit-round-test-secret-0123456"),
		Registry: reg,
		Retry:    tdb.RetryPolicy{Sleep: func(time.Duration) { <-blocked }},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Cleanups run last-in first-out: the clock unblocks before Close, so
	// a commit stuck on it can finish and Close does not wait on it.
	t.Cleanup(func() { db.Close() })
	t.Cleanup(func() { close(blocked) })
	txn := db.BeginObject()
	a, err := txn.Insert(&hooked{N: 1})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	b, err := txn.Insert(&hooked{N: 1})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := txn.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return db, a, b
}

// bump opens oid writable in a new transaction, increments it, arms its
// Pickle hook and returns the transaction, ready to commit.
func bump(t *testing.T, db *tdb.DB, oid tdb.ObjectID, pickling func()) *tdb.ObjectTxn {
	t.Helper()
	txn := db.BeginObject()
	ref, err := tdb.OpenWritable[*hooked](txn, oid)
	if err != nil {
		t.Fatalf("OpenWritable(%d): %v", oid, err)
	}
	ref.Deref().N++
	ref.Deref().pickling = pickling
	return txn
}

// commitWithin durably commits txn and fails the test if the commit does
// not return within commitDeadline.
func commitWithin(t *testing.T, what string, txn *tdb.ObjectTxn) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- txn.Commit(true) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(commitDeadline):
		t.Errorf("%s: durable commit did not return within %v", what, commitDeadline)
	}
}

// TestDurableCommitWaitsOnNoOtherPickle: a durable commit waits for no
// other transaction's application code. Rounds batch only the records
// already appended, so a transaction parked in its own Pickle, or one whose
// Pickle panicked, holds up no other durable commit — and no timer stands
// in for it either: the retry clock here never returns.
func TestDurableCommitWaitsOnNoOtherPickle(t *testing.T) {
	t.Run("another commit parked in Pickle", func(t *testing.T) {
		db, a, b := openHookedDB(t)
		parked, release := make(chan struct{}), make(chan struct{})
		txnA := bump(t, db, a, func() {
			close(parked)
			<-release
		})
		doneA := make(chan error, 1)
		go func() { doneA <- txnA.Commit(true) }()
		<-parked
		commitWithin(t, "commit B beside A parked in its Pickle", bump(t, db, b, nil))
		close(release)
		if err := <-doneA; err != nil {
			t.Fatalf("commit A: %v", err)
		}
	})

	t.Run("after a Pickle that panicked", func(t *testing.T) {
		db, a, b := openHookedDB(t)
		txnA := bump(t, db, a, func() { panic("pickle failed") })
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Pickle's panic did not reach the committer")
				}
			}()
			txnA.Commit(true)
		}()
		txnA.Abort()
		commitWithin(t, "lone commit after a recovered Pickle panic", bump(t, db, b, nil))
	})
}
