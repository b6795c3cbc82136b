// Package core assembles TDB's layers — chunk store, object store,
// collection store, and backup store over the platform substrates — into
// the embedded database engine the paper describes (§2, Figure 1).
//
// The modular layering is preserved: applications that need only trusted
// chunk storage can use the chunk store alone (the paper's "minimal
// configuration"), while the full engine opened here provides typed
// objects, automatically indexed collections, and validated backups, all
// protected against malicious corruption and unauthorized reading.
package core

import (
	"errors"
	"fmt"
	"time"

	"tdb/internal/backupstore"
	"tdb/internal/chunkstore"
	"tdb/internal/collection"
	"tdb/internal/objectstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Options configures a database. Zero values select defaults. Every field
// has a caller; the public tdb.Options doc lists who sets each tuning knob
// and why.
type Options struct {
	// Dir is the directory holding the database (untrusted store). Leave
	// empty and set Store to supply a custom store (tests use in-memory
	// stores).
	Dir string
	// Store overrides Dir with a custom untrusted store.
	Store platform.UntrustedStore

	// Secret is the device secret all keys derive from. On a real device it
	// lives in ROM or tamper-responsive SRAM, outside the attacker's store
	// (§2); in development, tdbctl -secret-file reads it from a file kept
	// apart from the database directory.
	Secret []byte

	// Suite names the crypto suite: "aes-ctr-gmac" (the default: AES-128-CTR,
	// chunks digested by GMAC, SHA-256 and HMAC-SHA256 truncated to 160 bits
	// elsewhere), "3des-sha1" (the paper's TDB-S), or "null" (security off —
	// the paper's plain TDB). A database reopens only under the suite it was
	// created with.
	Suite string

	// Counter is the one-way counter for replay detection. Nil uses a
	// counter emulated as a file in the store, exactly as the paper's
	// evaluation does (§7.2). Ignored for the "null" suite.
	Counter platform.OneWayCounter

	// Archive receives backups; nil disables the backup API.
	Archive platform.ArchivalStore

	// Registry holds the application's persistent classes. The collection
	// store's classes are registered automatically. Nil creates an empty
	// registry.
	Registry *objectstore.Registry

	// CacheBytes is the cache budget for location map nodes (default 4 MiB,
	// the paper's benchmark configuration; see chunkstore.Config). Decoded
	// objects live in the object store's decode table, which has a constant
	// budget of its own.
	CacheBytes int64
	// SegmentSize, MaxUtilization and CheckpointBytes tune the chunk store
	// (see chunkstore.Config).
	SegmentSize     int
	MaxUtilization  float64
	CheckpointBytes int64
	// DisableAutoClean and DisableAutoCheckpoint defer maintenance to
	// explicit Clean/Checkpoint calls (idle-time cleaning).
	DisableAutoClean      bool
	DisableAutoCheckpoint bool

	// Retry governs how transient storage I/O errors are retried (zero
	// fields select the defaults; see chunkstore.RetryPolicy).
	Retry chunkstore.RetryPolicy

	// LockTimeout bounds object lock waits (deadlock breaking); zero
	// selects the default.
	LockTimeout time.Duration
	// DisableLocking turns off transactional locking for strictly
	// single-threaded use (§4.2.3).
	DisableLocking bool
	// ReadonlyChecks enables the debug validation of read-only opens.
	ReadonlyChecks bool
}

// DB is an open TDB database.
type DB struct {
	opts    Options
	store   platform.UntrustedStore
	suite   sec.Suite
	counter platform.OneWayCounter

	chunks  *chunkstore.Store
	objects *objectstore.Store
	cols    *collection.Store
	backups *backupstore.Manager
}

// Open opens or creates a database. Opening an existing database performs
// full crash recovery and tamper validation; ErrTampered (from the
// chunkstore package) signals corruption or replay of a stale copy.
func Open(opts Options) (*DB, error) {
	db := &DB{opts: opts}
	if err := db.setup(); err != nil {
		return nil, err
	}
	cs, err := chunkstore.Open(db.chunkConfig())
	if err != nil {
		return nil, err
	}
	db.chunks = cs
	if err := db.layerUp(); err != nil {
		cs.Close()
		return nil, err
	}
	return db, nil
}

// setup resolves stores, suite, counter, and registry.
func (db *DB) setup() error {
	opts := &db.opts
	switch {
	case opts.Store != nil:
		db.store = opts.Store
	case opts.Dir != "":
		ds, err := platform.NewDirStore(opts.Dir)
		if err != nil {
			return err
		}
		db.store = ds
	default:
		return errors.New("core: Options require Dir or Store")
	}

	secret := opts.Secret
	suiteName := opts.Suite
	if suiteName == "" {
		suiteName = "aes-ctr-gmac"
	}
	if suiteName != "null" && len(secret) == 0 {
		return errors.New("core: a device secret is required unless Suite is \"null\"")
	}
	if suiteName == "null" && len(secret) == 0 {
		secret = []byte("tdb-null-suite") // unused by the null suite
	}
	suite, err := sec.NewSuite(suiteName, secret)
	if err != nil {
		return err
	}
	db.suite = suite

	if suiteName != "null" {
		db.counter = opts.Counter
		if db.counter == nil {
			ctr, err := platform.NewFileCounter(db.store, "counter")
			if err != nil {
				return err
			}
			db.counter = ctr
		}
	}

	if opts.Registry == nil {
		opts.Registry = objectstore.NewRegistry()
	}
	collection.RegisterClasses(opts.Registry)
	return nil
}

func (db *DB) chunkConfig() chunkstore.Config {
	return chunkstore.Config{
		Store:                 db.store,
		Counter:               db.counter,
		Suite:                 db.suite,
		SegmentSize:           db.opts.SegmentSize,
		MaxUtilization:        db.opts.MaxUtilization,
		CheckpointBytes:       db.opts.CheckpointBytes,
		CacheBytes:            db.opts.CacheBytes,
		DisableAutoClean:      db.opts.DisableAutoClean,
		DisableAutoCheckpoint: db.opts.DisableAutoCheckpoint,
		Retry:                 db.opts.Retry,
	}
}

// layerUp builds the object and collection stores over db.chunks.
func (db *DB) layerUp() error {
	os, err := objectstore.Open(objectstore.Config{
		Chunks:         db.chunks,
		Registry:       db.opts.Registry,
		LockTimeout:    db.opts.LockTimeout,
		DisableLocking: db.opts.DisableLocking,
		ReadonlyChecks: db.opts.ReadonlyChecks,
	})
	if err != nil {
		return err
	}
	db.objects = os
	cols, err := collection.NewStore(os)
	if err != nil {
		return err
	}
	db.cols = cols
	if db.opts.Archive != nil {
		db.backups = backupstore.NewManager(db.chunks, db.opts.Archive, db.suite)
	}
	return nil
}

// Close checkpoints and closes the database.
func (db *DB) Close() error {
	if db.backups != nil {
		db.backups.Close()
	}
	return db.objects.Close()
}

// Begin starts a collection transaction — the primary application API.
func (db *DB) Begin() *collection.CTransaction { return db.cols.Begin() }

// BeginReadOnly starts a snapshot collection transaction: it observes a
// consistent committed state, takes no object locks, never blocks on
// concurrent writers, and can never fail with ErrLockTimeout. Mutating
// operations fail with objectstore.ErrReadOnlyTxn. Ideal for the
// read-heavy traffic of a DRM meter store — rights checks, audits,
// reports — running alongside committing writers.
func (db *DB) BeginReadOnly() *collection.CTransaction { return db.cols.BeginReadOnly() }

// BeginObject starts a raw object transaction for applications using the
// object store directly. Databases that use collections must not mutate
// collection objects through this interface.
func (db *DB) BeginObject() *objectstore.Txn { return db.objects.Begin() }

// BeginObjectReadOnly starts a raw snapshot object transaction (the
// object-store analogue of BeginReadOnly).
func (db *DB) BeginObjectReadOnly() *objectstore.Txn { return db.objects.BeginReadOnly() }

// Objects exposes the object store layer.
func (db *DB) Objects() *objectstore.Store { return db.objects }

// Chunks exposes the chunk store layer.
func (db *DB) Chunks() *chunkstore.Store { return db.chunks }

// Collections exposes the collection store layer.
func (db *DB) Collections() *collection.Store { return db.cols }

// Verify audits the whole database against its Merkle tree.
func (db *DB) Verify() error { return db.chunks.Verify() }

// Checkpoint forces a location map checkpoint (idle-time maintenance).
func (db *DB) Checkpoint() error { return db.chunks.Checkpoint() }

// Clean compacts the log (idle-time cleaning, §3.2.1).
func (db *DB) Clean() error { return db.chunks.Clean() }

// Stats reports storage statistics.
func (db *DB) Stats() chunkstore.Stats { return db.chunks.Stats() }

// Scrub audits every live chunk against the Merkle tree and reports (and
// quarantines) the damaged ones. Unlike Verify, which fails on the first
// problem, Scrub is damage-tolerant: it enumerates everything wrong so the
// damage can be repaired from backups.
func (db *DB) Scrub() (*chunkstore.ScrubReport, error) { return db.chunks.Scrub() }

// Repair heals the damaged chunks in a scrub report from the archive's
// backup chain, then re-scrubs to prove the store is whole.
func (db *DB) Repair(report *chunkstore.ScrubReport) (*backupstore.RepairResult, error) {
	if db.opts.Archive == nil {
		return nil, errors.New("core: no archive configured")
	}
	return backupstore.Repair(db.chunks, db.opts.Archive, db.suite, report)
}

// BackupFull writes a full backup to the archive.
func (db *DB) BackupFull() (backupstore.Info, error) {
	if db.backups == nil {
		return backupstore.Info{}, errors.New("core: no archive configured")
	}
	return db.backups.Full()
}

// BackupIncremental writes an incremental backup containing the changes
// since the previous backup in this session (falling back to a full backup
// when there is none).
func (db *DB) BackupIncremental() (backupstore.Info, error) {
	if db.backups == nil {
		return backupstore.Info{}, errors.New("core: no archive configured")
	}
	return db.backups.Incremental()
}

// Restore rebuilds a database from the archive's backup chain into the
// location described by opts (which must name a fresh store) and opens it.
// Every stream is validated; tampered or out-of-order backups are rejected.
func Restore(opts Options, archive platform.ArchivalStore) (*DB, error) {
	db := &DB{opts: opts}
	if err := db.setup(); err != nil {
		return nil, err
	}
	cs, err := chunkstore.Open(db.chunkConfig())
	if err != nil {
		return nil, err
	}
	if cs.Stats().Chunks != 0 {
		cs.Close()
		return nil, errors.New("core: restore target is not empty")
	}
	chain, err := backupstore.Chain(archive, db.suite)
	if err != nil {
		cs.Close()
		return nil, err
	}
	names := make([]string, len(chain))
	for i, c := range chain {
		names[i] = c.Name
	}
	if err := backupstore.Restore(cs, archive, db.suite, names); err != nil {
		cs.Close()
		return nil, err
	}
	db.chunks = cs
	if err := db.layerUp(); err != nil {
		cs.Close()
		return nil, err
	}
	return db, nil
}

// String describes the configuration: the suite and the map-node cache
// budget the chunk store runs with.
func (db *DB) String() string {
	return fmt.Sprintf("tdb(%s, cache %d)", db.suite.Name(), db.chunks.Stats().CacheBudget)
}
