package tpcb

import (
	"fmt"

	"tdb/internal/collection"
	"tdb/internal/core"
	"tdb/internal/objectstore"
	"tdb/internal/platform"
)

// TDBDriver runs TPC-B against TDB through the collection store, the way a
// DRM application would: Account/Teller/Branch are collections with unique
// hash indexes on their 4-byte ids; History is append-only with a list
// index.
type TDBDriver struct {
	name    string
	db      *core.DB
	counter platform.OneWayCounter

	accountIx, tellerIx, branchIx, historyIx collection.GenericIndexer
	histSeq                                  int64
}

// TDBOptions configures NewTDBDriver.
type TDBOptions struct {
	// Store is the untrusted store to run on (benchmarks pass a metered
	// simulated disk).
	Store platform.UntrustedStore
	// Suite names the crypto suite. Empty or "null" is the paper's plain
	// TDB (security off), "3des-sha1" its TDB-S (§7.3); any other suite
	// runs as TDB-<suite>.
	Suite string
	// MaxUtilization is the chunk store's cleaning bound (Figure 11's
	// x-axis). Zero selects the default 0.60.
	MaxUtilization float64
	// Counter overrides the one-way counter of a secure suite (nil:
	// file-emulated, as in the paper).
	Counter platform.OneWayCounter
}

// NewTDBDriver opens a fresh TDB instance for the benchmark.
func NewTDBDriver(opts TDBOptions) (*TDBDriver, error) {
	if err := Verify(); err != nil {
		return nil, err
	}
	reg := objectstore.NewRegistry()
	RegisterClasses(reg)
	suite, name := opts.Suite, "TDB"
	switch suite {
	case "", "null":
		suite = "null"
	case "3des-sha1":
		name = "TDB-S"
	default:
		name = "TDB-" + suite
	}
	counter := opts.Counter
	if counter == nil && suite != "null" {
		// The paper's evaluation emulates the one-way counter as a file on
		// the same partition, written through the OS cache (§7.2).
		var err error
		counter, err = platform.NewFileCounterNoSync(opts.Store, "counter")
		if err != nil {
			return nil, err
		}
	}
	db, err := core.Open(core.Options{
		Store:          opts.Store,
		Secret:         []byte("tpcb-benchmark-device-secret-012"),
		Suite:          suite,
		Counter:        counter,
		Registry:       reg,
		MaxUtilization: opts.MaxUtilization,
		// Checkpoints rewrite the dirty location map; defer them the way
		// the paper defers reorganization to idle periods (§1, §3.2.1).
		CheckpointBytes: 16 << 20,
		// The TPC-B driver is single-threaded; the paper notes locking can
		// be switched off in that case (§4.2.3).
		DisableLocking: true,
	})
	if err != nil {
		return nil, err
	}
	d := &TDBDriver{name: name, db: db, counter: counter}
	d.bindIndexers()
	return d, nil
}

// bindIndexers constructs the four collections' indexers. TPC-B ids never
// change, so the keys are declared immutable — the §5.2.3 optimization that
// skips pre-update key snapshots.
func (d *TDBDriver) bindIndexers() {
	d.accountIx = &collection.Indexer[*Account, collection.IntKey]{
		IndexName: "id", IsUnique: true, Organization: collection.HashTable, KeyImmutable: true,
		Extract: func(a *Account) collection.IntKey { return collection.IntKey(a.ID) },
	}
	d.tellerIx = &collection.Indexer[*Teller, collection.IntKey]{
		IndexName: "id", IsUnique: true, Organization: collection.HashTable, KeyImmutable: true,
		Extract: func(t *Teller) collection.IntKey { return collection.IntKey(t.ID) },
	}
	d.branchIx = &collection.Indexer[*Branch, collection.IntKey]{
		IndexName: "id", IsUnique: true, Organization: collection.HashTable, KeyImmutable: true,
		Extract: func(b *Branch) collection.IntKey { return collection.IntKey(b.ID) },
	}
	d.historyIx = &collection.Indexer[*History, collection.IntKey]{
		IndexName: "log", IsUnique: false, Organization: collection.List, KeyImmutable: true,
		Extract: func(h *History) collection.IntKey { return collection.IntKey(h.Seq) },
	}
}

// Name implements Driver.
func (d *TDBDriver) Name() string { return d.name }

// DB exposes the underlying database (stats).
func (d *TDBDriver) DB() *core.DB { return d.db }

// Load implements Driver: creates the four collections and their initial
// rows (Figure 9), committing in batches.
func (d *TDBDriver) Load(scale Scale) error {
	ct := d.db.Begin()
	if _, err := ct.CreateCollection("account", d.accountIx); err != nil {
		return err
	}
	if _, err := ct.CreateCollection("teller", d.tellerIx); err != nil {
		return err
	}
	if _, err := ct.CreateCollection("branch", d.branchIx); err != nil {
		return err
	}
	if _, err := ct.CreateCollection("history", d.historyIx); err != nil {
		return err
	}
	if err := ct.Commit(true); err != nil {
		return err
	}

	const batch = 1000
	for start := 0; start < scale.Accounts; start += batch {
		ct := d.db.Begin()
		h, err := ct.WriteCollection("account", d.accountIx)
		if err != nil {
			return err
		}
		for i := start; i < start+batch && i < scale.Accounts; i++ {
			if _, err := h.Insert(&Account{ID: int32(i), BranchID: int32(i % scale.Branches)}); err != nil {
				return err
			}
		}
		if err := ct.Commit(true); err != nil {
			return err
		}
	}
	ct = d.db.Begin()
	th, err := ct.WriteCollection("teller", d.tellerIx)
	if err != nil {
		return err
	}
	for i := 0; i < scale.Tellers; i++ {
		if _, err := th.Insert(&Teller{ID: int32(i), BranchID: int32(i % scale.Branches)}); err != nil {
			return err
		}
	}
	bh, err := ct.WriteCollection("branch", d.branchIx)
	if err != nil {
		return err
	}
	for i := 0; i < scale.Branches; i++ {
		if _, err := bh.Insert(&Branch{ID: int32(i)}); err != nil {
			return err
		}
	}
	if err := ct.Commit(true); err != nil {
		return err
	}
	// Settle into steady state: checkpoint so the load's residual log does
	// not distort the measured phase.
	return d.db.Checkpoint()
}

// Run implements Driver: one TPC-B transaction.
func (d *TDBDriver) Run(op Op) error {
	ct := d.db.Begin()
	ok := false
	defer func() {
		if !ok {
			ct.Abort()
		}
	}()

	if err := d.updateBalance(ct, "account", d.accountIx, op.Account, op.Delta); err != nil {
		return err
	}
	if err := d.updateBalance(ct, "teller", d.tellerIx, op.Teller, op.Delta); err != nil {
		return err
	}
	if err := d.updateBalance(ct, "branch", d.branchIx, op.Branch, op.Delta); err != nil {
		return err
	}
	hh, err := ct.WriteCollection("history", d.historyIx)
	if err != nil {
		return err
	}
	d.histSeq++
	if _, err := hh.Insert(&History{
		Seq: d.histSeq, Account: op.Account, Teller: op.Teller, Branch: op.Branch, Delta: op.Delta,
	}); err != nil {
		return err
	}
	if err := ct.Commit(true); err != nil {
		return err
	}
	ok = true
	return nil
}

// RunReadOnly executes the read-only TPC-B variant: a snapshot transaction
// reading the balances the read-write transaction would update (account,
// teller, branch). It runs on the MVCC snapshot path — no lock-table
// entries, never ErrLockTimeout — so any number of these may run
// concurrently with the (single-threaded) write stream.
func (d *TDBDriver) RunReadOnly(op Op) error {
	ct := d.db.BeginReadOnly()
	defer ct.Abort()
	if err := d.readBalance(ct, "account", d.accountIx, op.Account); err != nil {
		return err
	}
	if err := d.readBalance(ct, "teller", d.tellerIx, op.Teller); err != nil {
		return err
	}
	if err := d.readBalance(ct, "branch", d.branchIx, op.Branch); err != nil {
		return err
	}
	return ct.Commit(false)
}

// readBalance resolves one row against the transaction's snapshot.
func (d *TDBDriver) readBalance(ct *collection.CTransaction, name string, ix collection.GenericIndexer, id int32) error {
	h, err := ct.ReadCollection(name, ix)
	if err != nil {
		return err
	}
	it, err := h.QueryExact(ix, collection.IntKey(id))
	if err != nil {
		return err
	}
	defer it.Close()
	if !it.Next() {
		return fmt.Errorf("tpcb: %s row %d missing", name, id)
	}
	if _, err := it.Read(); err != nil {
		return err
	}
	return nil
}

// updateBalance reads and updates one row through an iterator.
func (d *TDBDriver) updateBalance(ct *collection.CTransaction, name string, ix collection.GenericIndexer, id int32, delta int64) error {
	h, err := ct.WriteCollection(name, ix)
	if err != nil {
		return err
	}
	it, err := h.QueryExact(ix, collection.IntKey(id))
	if err != nil {
		return err
	}
	if !it.Next() {
		it.Close()
		return fmt.Errorf("tpcb: %s row %d missing", name, id)
	}
	obj, err := it.Write()
	if err != nil {
		it.Close()
		return err
	}
	switch row := obj.(type) {
	case *Account:
		row.Balance += delta
	case *Teller:
		row.Balance += delta
	case *Branch:
		row.Balance += delta
	default:
		it.Close()
		return fmt.Errorf("tpcb: unexpected row type %T", obj)
	}
	return it.Close()
}

// Verify audits the database.
func (d *TDBDriver) VerifyDB() error { return d.db.Verify() }

// Close implements Driver.
func (d *TDBDriver) Close() error { return d.db.Close() }
