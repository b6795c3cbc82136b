package main

import (
	"fmt"
	"sync/atomic"

	//tdblint:ignore secret-hygiene deterministic benchmark workload generation; no secret material
	"math/rand"

	"tdb"
)

// updateC2 is two closed-loop clients doing durable read-modify-write
// transactions through the raw object API, on a Zipfian(1.2) choice among
// objects that fit in cache: the commit layer used concurrently.
type updateC2 struct {
	seed int64
	sz   sizes
	oids []tdb.ObjectID
	zipf []*rand.Zipf // one generator per client

	durable   atomic.Bool
	committed atomic.Int64 // acknowledged updates = Σ revision over all objects
}

func newUpdateC2(seed int64, sz sizes) *updateC2 {
	w := &updateC2{seed: seed, sz: sz}
	for c := 0; c < w.clients(); c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)*7919))
		w.zipf = append(w.zipf, rand.NewZipf(rng, 1.2, 1, uint64(sz.objects-1)))
	}
	return w
}

func (w *updateC2) clients() int { return 2 }

func (w *updateC2) load(e *env) error {
	const batch = 512
	for start := 0; start < w.sz.objects; start += batch {
		txn := e.db.BeginObject()
		for i := start; i < start+batch && i < w.sz.objects; i++ {
			oid, err := txn.Insert(newLicence(w.seed, int64(i)))
			if err != nil {
				txn.Abort()
				return err
			}
			w.oids = append(w.oids, oid)
		}
		if err := txn.Commit(false); err != nil {
			return err
		}
	}
	return nil
}

func (w *updateC2) client(e *env, c int, rec *recorder) func() error {
	return func() error {
		return w.update(e.db, rec, int64(w.zipf[c].Uint64()), w.durable.Load())
	}
}

// update bumps object i's revision in one transaction.
func (w *updateC2) update(db *tdb.DB, rec *recorder, i int64, durable bool) error {
	s := rec.now()
	txn := db.BeginObject()
	rec.add(spBegin, s)
	s = rec.now()
	ref, err := tdb.OpenWritable[*Licence](txn, w.oids[i])
	rec.add(spObjOpen, s)
	if err != nil {
		txn.Abort()
		return err
	}
	l := ref.Deref()
	if err := l.check(i); err != nil {
		txn.Abort()
		return fmt.Errorf("%w: %v", errViolation, err)
	}
	l.bump()
	s = rec.now()
	err = txn.Commit(durable)
	rec.add(spCommit, s)
	if err != nil {
		txn.Abort()
		return err
	}
	w.committed.Add(1)
	return nil
}

// warm updates nondurably until the cleaner has started (one client's
// stream; the objects' garbage is what matters, not who made it).
func (w *updateC2) warm(e *env) error {
	defer w.durable.Store(true)
	for i := 0; e.db.Stats().Cleanings == 0; i++ {
		if i >= w.sz.warmCap {
			return fmt.Errorf("cleaner has not started after %d warm-up updates", i)
		}
		if err := w.update(e.db, nil, int64(w.zipf[0].Uint64()), false); err != nil {
			return err
		}
	}
	return nil
}

// check reads every object back: each must carry a valid payload, and the
// revisions must add up to the acknowledged updates — none lost, none
// applied twice.
func (w *updateC2) check(db *tdb.DB) error {
	sum, err := w.revisions(db, len(w.oids))
	if err != nil {
		return err
	}
	if want := w.committed.Load(); sum != want {
		return fmt.Errorf("%w: update-c2: revisions sum to %d, %d updates acknowledged", errViolation, sum, want)
	}
	return nil
}

// revisions sums the revision of the first n objects in one snapshot.
func (w *updateC2) revisions(db *tdb.DB, n int) (int64, error) {
	txn := db.BeginObjectReadOnly()
	defer txn.Abort()
	var sum int64
	for i, oid := range w.oids[:n] {
		ref, err := tdb.OpenReadonly[*Licence](txn, oid)
		if err != nil {
			return 0, fmt.Errorf("object %d: %w", i, err)
		}
		l := ref.Deref()
		if err := l.check(int64(i)); err != nil {
			return 0, fmt.Errorf("%w: %v", errViolation, err)
		}
		sum += int64(l.revision())
	}
	return sum, nil
}

func (w *updateC2) durableOp(db *tdb.DB, i int) error {
	return w.update(db, nil, int64(i%len(w.oids)), true)
}

func (w *updateC2) durableState(db *tdb.DB) (int64, error) {
	return w.revisions(db, min(w.sz.durableOps, len(w.oids)))
}

func (w *updateC2) nextOIDs(_ *env, n int) ([]tdb.ObjectID, error) {
	oids := make([]tdb.ObjectID, n)
	for i := range oids {
		oids[i] = w.oids[w.zipf[0].Uint64()]
	}
	return oids, nil
}
