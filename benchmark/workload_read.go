package main

import (
	"fmt"

	//tdblint:ignore secret-hygiene deterministic benchmark workload generation; no secret material
	"math/rand"

	"tdb"
)

// licences is the loaded collection read-hot, read-cold and scan-vs-writer
// share: records ids 0..n-1 under a unique hash index on ID and, for the
// scan workload, a B-tree on Issued.
type licences struct {
	seed     int64
	n        int
	byID     tdb.GenericIndexer
	byIssued tdb.GenericIndexer // nil without the B-tree
}

func newLicences(seed int64, n int, btree bool) licences {
	byID := tdb.NewIndexer("id", true, tdb.HashTable, func(l *Licence) tdb.IntKey { return tdb.IntKey(l.ID) })
	byID.KeyImmutable = true
	c := licences{seed: seed, n: n, byID: byID}
	if btree {
		byIssued := tdb.NewIndexer("issued", true, tdb.BTree, func(l *Licence) tdb.IntKey { return tdb.IntKey(l.Issued) })
		byIssued.KeyImmutable = true
		c.byIssued = byIssued
	}
	return c
}

func (c licences) indexers() []tdb.GenericIndexer {
	if c.byIssued == nil {
		return []tdb.GenericIndexer{c.byID}
	}
	return []tdb.GenericIndexer{c.byID, c.byIssued}
}

// load inserts the records in id order, so insertion order, Issued order
// and (in a fresh log) physical order coincide.
func (c licences) load(db *tdb.DB) error {
	txn := db.Begin()
	if _, err := txn.CreateCollection("licences", c.indexers()...); err != nil {
		txn.Abort()
		return err
	}
	if err := txn.Commit(false); err != nil {
		return err
	}
	const batch = 1024
	for start := 0; start < c.n; start += batch {
		txn := db.Begin()
		h, err := txn.WriteCollection("licences", c.indexers()...)
		if err != nil {
			txn.Abort()
			return err
		}
		for i := start; i < start+batch && i < c.n; i++ {
			if _, err := h.Insert(newLicence(c.seed, int64(i))); err != nil {
				txn.Abort()
				return err
			}
		}
		if err := txn.Commit(false); err != nil {
			return err
		}
	}
	return nil
}

// lookup is one exact-match read of record id through the hash index.
func (c licences) lookup(h *tdb.Collection, rec *recorder, id int64) (*Licence, error) {
	s := rec.now()
	it, err := h.QueryExact(c.byID, tdb.IntKey(id))
	if err != nil {
		return nil, err
	}
	found := it.Next()
	rec.add(spQuery, s)
	if !found {
		it.Close()
		return nil, fmt.Errorf("%w: licence %d not found", errViolation, id)
	}
	s = rec.now()
	l, err := tdb.ReadAs[*Licence](it)
	rec.add(spDeref, s)
	if err != nil {
		it.Close()
		return nil, err
	}
	s = rec.now()
	err = it.Close()
	rec.add(spIterClose, s)
	if err != nil {
		return nil, err
	}
	if err := l.check(id); err != nil {
		return nil, fmt.Errorf("%w: %v", errViolation, err)
	}
	return l, nil
}

// reads is read-hot and read-cold: two clients, each operation one snapshot
// transaction doing sz.lookups exact-match lookups with keys uniform over
// the first span records. The two workloads differ in span and in nothing
// else.
type reads struct {
	licences
	sz   sizes
	span int
	rngs []*rand.Rand
}

func newReads(seed int64, sz sizes, span int) *reads {
	w := &reads{licences: newLicences(seed, sz.records, false), sz: sz, span: span}
	for c := 0; c < w.clients(); c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed+int64(c)*7919)))
	}
	return w
}

func (w *reads) clients() int      { return 2 }
func (w *reads) load(e *env) error { return w.licences.load(e.db) }

func (w *reads) client(e *env, c int, rec *recorder) func() error {
	rng := w.rngs[c]
	return func() error {
		s := rec.now()
		txn := e.db.BeginReadOnly()
		rec.add(spBegin, s)
		defer txn.Abort()
		h, err := txn.ReadCollection("licences", w.byID)
		if err != nil {
			return err
		}
		for i := 0; i < w.sz.lookups; i++ {
			if _, err := w.lookup(h, rec, int64(rng.Intn(w.span))); err != nil {
				return err
			}
		}
		s = rec.now()
		err = txn.Commit(false)
		rec.add(spCommit, s)
		return err
	}
}

// warm runs the fixed warm-up: enough operations that read-hot's whole key
// span is resident before the measured phase.
func (w *reads) warm(e *env) error {
	for c := 0; c < w.clients(); c++ {
		op := w.client(e, c, nil)
		for i := 0; i < w.sz.warmOps; i++ {
			if err := op(); err != nil {
				return err
			}
		}
	}
	return nil
}

// check has nothing of its own: every lookup validated its payload, and the
// harness fails a read workload that wrote a byte.
func (w *reads) check(*tdb.DB) error { return nil }

func (w *reads) nextOIDs(e *env, n int) ([]tdb.ObjectID, error) {
	return w.resolve(e.db, n, func() int64 { return int64(w.rngs[0].Intn(w.span)) })
}

// resolve maps n generated ids to object ids through the hash index.
func (c licences) resolve(db *tdb.DB, n int, next func() int64) ([]tdb.ObjectID, error) {
	txn := db.BeginReadOnly()
	defer txn.Abort()
	h, err := txn.ReadCollection("licences", c.byID)
	if err != nil {
		return nil, err
	}
	oids := make([]tdb.ObjectID, 0, n)
	for len(oids) < n {
		oid, err := lookupOID(h, c.byID, tdb.IntKey(next()))
		if err != nil {
			return nil, err
		}
		oids = append(oids, oid)
	}
	return oids, nil
}
