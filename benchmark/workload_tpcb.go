package main

import (
	"fmt"

	//tdblint:ignore secret-hygiene deterministic benchmark workload generation; no secret material
	"math/rand"

	"tdb"
)

// tpcb is the paper's §7.1 workload through the collection API: Account,
// Teller and Branch are collections with unique hash indexes on their ids,
// History is append-only under a list index; one client, every transaction
// committed durably.
type tpcb struct {
	sz  sizes
	rng *rand.Rand

	accountIx, tellerIx, branchIx, historyIx tdb.GenericIndexer

	durable bool  // commit mode: warm-up ages the log with nondurable commits
	histSeq int64 // history rows appended = transactions committed
	sum     int64 // Σ delta of committed transactions
}

func newTPCB(seed int64, sz sizes) *tpcb {
	w := &tpcb{sz: sz, rng: rand.New(rand.NewSource(seed))}
	// TPC-B ids never change: the keys are declared immutable, the §5.2.3
	// optimization that skips pre-update key snapshots.
	account := tdb.NewIndexer("id", true, tdb.HashTable, func(a *Account) tdb.IntKey { return tdb.IntKey(a.ID) })
	account.KeyImmutable = true
	teller := tdb.NewIndexer("id", true, tdb.HashTable, func(t *Teller) tdb.IntKey { return tdb.IntKey(t.ID) })
	teller.KeyImmutable = true
	branch := tdb.NewIndexer("id", true, tdb.HashTable, func(b *Branch) tdb.IntKey { return tdb.IntKey(b.ID) })
	branch.KeyImmutable = true
	history := tdb.NewIndexer("log", false, tdb.List, func(h *History) tdb.IntKey { return tdb.IntKey(h.Seq) })
	history.KeyImmutable = true
	w.accountIx, w.tellerIx, w.branchIx, w.historyIx = account, teller, branch, history
	return w
}

// tables lists the four collections in creation order.
func (w *tpcb) tables() []tpcbTable {
	return []tpcbTable{
		{"account", w.accountIx}, {"teller", w.tellerIx}, {"branch", w.branchIx}, {"history", w.historyIx},
	}
}

type tpcbTable struct {
	name string
	ix   tdb.GenericIndexer
}

func (w *tpcb) clients() int { return 1 }

func (w *tpcb) load(e *env) error {
	txn := e.db.Begin()
	for _, t := range w.tables() {
		if _, err := txn.CreateCollection(t.name, t.ix); err != nil {
			txn.Abort()
			return err
		}
	}
	if err := txn.Commit(false); err != nil {
		return err
	}
	const batch = 1000
	for start := 0; start < w.sz.accounts; start += batch {
		txn := e.db.Begin()
		h, err := txn.WriteCollection("account", w.accountIx)
		if err != nil {
			txn.Abort()
			return err
		}
		for i := start; i < start+batch && i < w.sz.accounts; i++ {
			if _, err := h.Insert(&Account{balanceRow{ID: int32(i)}}); err != nil {
				txn.Abort()
				return err
			}
		}
		if err := txn.Commit(false); err != nil {
			return err
		}
	}
	txn = e.db.Begin()
	th, err := txn.WriteCollection("teller", w.tellerIx)
	if err != nil {
		txn.Abort()
		return err
	}
	for i := 0; i < w.sz.tellers; i++ {
		if _, err := th.Insert(&Teller{balanceRow{ID: int32(i)}}); err != nil {
			txn.Abort()
			return err
		}
	}
	bh, err := txn.WriteCollection("branch", w.branchIx)
	if err != nil {
		txn.Abort()
		return err
	}
	for i := 0; i < w.sz.branches; i++ {
		if _, err := bh.Insert(&Branch{balanceRow{ID: int32(i)}}); err != nil {
			txn.Abort()
			return err
		}
	}
	return txn.Commit(true)
}

// tpcbOp is one generated transaction's parameters.
type tpcbOp struct {
	account, teller, branch int32
	delta                   int64
}

func (w *tpcb) next() tpcbOp {
	return tpcbOp{
		account: int32(w.rng.Intn(w.sz.accounts)),
		teller:  int32(w.rng.Intn(w.sz.tellers)),
		branch:  int32(w.rng.Intn(w.sz.branches)),
		delta:   int64(w.rng.Intn(1999999) - 999999), // TPC-B: [-999999, +999999]
	}
}

func (w *tpcb) client(e *env, _ int, rec *recorder) func() error {
	return func() error { return w.txn(e.db, rec, w.next(), w.durable) }
}

// txn runs one TPC-B transaction: update a random account, teller and
// branch balance by delta and append the history row.
func (w *tpcb) txn(db *tdb.DB, rec *recorder, op tpcbOp, durable bool) error {
	s := rec.now()
	txn := db.Begin()
	rec.add(spBegin, s)
	err := w.update(txn, rec, "account", w.accountIx, op.account, op.delta)
	if err == nil {
		err = w.update(txn, rec, "teller", w.tellerIx, op.teller, op.delta)
	}
	if err == nil {
		err = w.update(txn, rec, "branch", w.branchIx, op.branch, op.delta)
	}
	if err == nil {
		var hh *tdb.Collection
		if hh, err = txn.WriteCollection("history", w.historyIx); err == nil {
			_, err = hh.Insert(&History{
				Seq: w.histSeq + 1, Account: op.account, Teller: op.teller, Branch: op.branch, Delta: op.delta,
			})
		}
	}
	if err != nil {
		txn.Abort()
		return err
	}
	s = rec.now()
	err = txn.Commit(durable)
	rec.add(spCommit, s)
	if err != nil {
		txn.Abort()
		return err
	}
	w.histSeq++
	w.sum += op.delta
	return nil
}

func (w *tpcb) update(txn *tdb.Txn, rec *recorder, name string, ix tdb.GenericIndexer, id int32, delta int64) error {
	s := rec.now()
	h, err := txn.WriteCollection(name, ix)
	if err != nil {
		return err
	}
	it, err := h.QueryExact(ix, tdb.IntKey(id))
	if err != nil {
		return err
	}
	found := it.Next()
	rec.add(spQuery, s)
	if !found {
		it.Close()
		return fmt.Errorf("tpcb: %s row %d missing", name, id)
	}
	s = rec.now()
	obj, err := it.Write()
	rec.add(spDeref, s)
	if err != nil {
		it.Close()
		return err
	}
	row, ok := obj.(interface{ row() *balanceRow })
	if !ok {
		it.Close()
		return fmt.Errorf("tpcb: unexpected %s row type %T", name, obj)
	}
	row.row().Balance += delta
	s = rec.now()
	err = it.Close()
	rec.add(spIterClose, s)
	return err
}

// warm ages the log with nondurable transactions until the cleaner has
// started, so the measured phase runs in the paper's steady state: cleaning
// and checkpoints fall inside it. From then on transactions are durable.
func (w *tpcb) warm(e *env) error {
	defer func() { w.durable = true }()
	for i := 0; e.db.Stats().Cleanings == 0; i++ {
		if i >= w.sz.warmCap {
			return fmt.Errorf("cleaner has not started after %d warm-up transactions", i)
		}
		if err := w.txn(e.db, nil, w.next(), false); err != nil {
			return err
		}
	}
	return nil
}

// check is the TPC-B consistency condition: the three balance sums and the
// history's delta sum agree, and there is one history row per committed
// transaction.
func (w *tpcb) check(db *tdb.DB) error {
	txn := db.BeginReadOnly()
	defer txn.Abort()
	sums := map[string]int64{}
	for _, t := range w.tables() {
		name, ix := t.name, t.ix
		h, err := txn.ReadCollection(name, ix)
		if err != nil {
			return err
		}
		it, err := h.Query(ix)
		if err != nil {
			return err
		}
		rows := int64(0)
		for it.Next() {
			obj, err := it.Read()
			if err != nil {
				it.Close()
				return fmt.Errorf("tpcb: %s row %d: %w", name, rows, err)
			}
			switch row := obj.(type) {
			case interface{ row() *balanceRow }:
				sums[name] += row.row().Balance
			case *History:
				sums[name] += row.Delta
			}
			rows++
		}
		if err := it.Close(); err != nil {
			return err
		}
		if name == "history" && rows != w.histSeq {
			return fmt.Errorf("%w: tpcb: %d history rows, %d transactions committed", errViolation, rows, w.histSeq)
		}
	}
	for name, sum := range sums {
		if sum != w.sum {
			return fmt.Errorf("%w: tpcb: Σ%s = %d, committed deltas sum to %d", errViolation, name, sum, w.sum)
		}
	}
	return nil
}

func (w *tpcb) durableOp(db *tdb.DB, _ int) error { return w.txn(db, nil, w.next(), true) }

func (w *tpcb) durableState(db *tdb.DB) (int64, error) {
	txn := db.BeginReadOnly()
	defer txn.Abort()
	h, err := txn.ReadCollection("history", w.historyIx)
	if err != nil {
		return 0, err
	}
	return h.Size(), nil
}

func (w *tpcb) nextOIDs(e *env, n int) ([]tdb.ObjectID, error) {
	txn := e.db.BeginReadOnly()
	defer txn.Abort()
	h, err := txn.ReadCollection("account", w.accountIx)
	if err != nil {
		return nil, err
	}
	oids := make([]tdb.ObjectID, 0, n)
	for len(oids) < n {
		oid, err := lookupOID(h, w.accountIx, tdb.IntKey(w.next().account))
		if err != nil {
			return nil, err
		}
		oids = append(oids, oid)
	}
	return oids, nil
}

// lookupOID resolves one exact-match key to the object id it indexes.
func lookupOID(h *tdb.Collection, ix tdb.GenericIndexer, key tdb.Key) (tdb.ObjectID, error) {
	it, err := h.QueryExact(ix, key)
	if err != nil {
		return tdb.NilObject, err
	}
	defer it.Close()
	if !it.Next() {
		return tdb.NilObject, fmt.Errorf("key %v not found", key)
	}
	return it.ID()
}
