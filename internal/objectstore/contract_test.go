package objectstore

import (
	"errors"
	"testing"

	"tdb/internal/chunkstore"
)

// TestTxnCommitContract checks that Txn.Commit carries the chunk store's
// commit contract (chunkstore.Store.Commit) through the object layer: a
// durable commit whose harden fails is applied, visible and finished, and
// the next durable commit hardens it; a commit whose stage 2 fails applied
// nothing and leaves the same transaction active for a retry.
func TestTxnCommitContract(t *testing.T) {
	e := newStressEnv(t)
	s := e.open(t)
	e.faults.SetLoseUnsynced(true)

	setup := s.Begin()
	oid, err := setup.Insert(&Meter{ID: 1})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := setup.Commit(true); err != nil {
		t.Fatalf("setup Commit: %v", err)
	}

	// Harden failure: applied, visible, transaction finished.
	txn := s.Begin()
	obj, err := txn.OpenWritable(oid)
	if err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	obj.(*Meter).ViewCount = 7
	e.faults.SetSyncFailures(true)
	err = txn.Commit(true)
	e.faults.SetSyncFailures(false)
	if !errors.Is(err, chunkstore.ErrNotDurable) || !errors.Is(err, chunkstore.ErrIO) {
		t.Fatalf("durable Commit under failing sync: %v, want ErrNotDurable wrapping ErrIO", err)
	}
	if txn.Active() {
		t.Fatal("transaction still active after ErrNotDurable")
	}
	if err := txn.Commit(true); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second Commit: %v, want ErrTxnDone", err)
	}
	viewCount := func(s *Store) int32 {
		t.Helper()
		ro := s.BeginReadOnly()
		defer ro.Abort()
		obj, err := ro.OpenReadonly(oid)
		if err != nil {
			t.Fatalf("OpenReadonly: %v", err)
		}
		return obj.(*Meter).ViewCount
	}
	if got := viewCount(s); got != 7 {
		t.Fatalf("ViewCount after ErrNotDurable = %d, want the applied 7", got)
	}

	// Stage-2 failure: a nondurable object record of 40,000 ids (320 KB)
	// fills the chunk store's write-behind buffers past their cap, so the
	// next commit's stage 2 starts with their flush, and that write fails.
	// Nothing applied; the same transaction retries.
	bulk := s.Begin()
	ids := make([]ObjectID, 40000)
	bigOID, err := bulk.Insert(&Profile{Meters: ids})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := bulk.Commit(false); err != nil {
		t.Fatalf("nondurable Commit of the bulk record: %v", err)
	}
	next := s.Begin()
	if obj, err = next.OpenWritable(oid); err != nil {
		t.Fatalf("OpenWritable: %v", err)
	}
	obj.(*Meter).ViewCount = 9
	e.faults.SetWriteBudget(0)
	err = next.Commit(true)
	e.faults.SetWriteBudget(-1)
	if err == nil || errors.Is(err, chunkstore.ErrNotDurable) || errors.Is(err, chunkstore.ErrMaintenance) {
		t.Fatalf("Commit with a failing stage 2: %v, want a plain failure", err)
	}
	if !next.Active() {
		t.Fatal("transaction finished by a commit that applied nothing")
	}
	if got := viewCount(s); got != 7 {
		t.Fatalf("ViewCount after a failed stage 2 = %d, want the earlier 7", got)
	}
	// The retry succeeds, and — being durable — hardens the earlier
	// ErrNotDurable and nondurable commits with it.
	if err := next.Commit(true); err != nil {
		t.Fatalf("retrying the same Txn: %v", err)
	}

	if err := e.faults.CrashLoseUnsynced(); err != nil {
		t.Fatalf("CrashLoseUnsynced: %v", err)
	}
	reopened := e.open(t)
	defer reopened.Close()
	if got := viewCount(reopened); got != 9 {
		t.Fatalf("recovered ViewCount = %d, want the retried commit's 9", got)
	}
	ro := reopened.BeginReadOnly()
	defer ro.Abort()
	if obj, err := ro.OpenReadonly(bigOID); err != nil || len(obj.(*Profile).Meters) != len(ids) {
		t.Fatalf("recovered big object: %v", err)
	}
}
