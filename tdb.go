// Package tdb is a trusted embedded database system for Digital Rights
// Management applications — a Go implementation of TDB (Vingralek,
// Maheshwari, Shapiro: "TDB: A Database System for Digital Rights
// Management", EDBT 2002).
//
// TDB stores small, valuable application state — usage meters, prepaid
// balances, audit records, content keys — on storage the attacker fully
// controls, and protects it against unauthorized reading (every chunk is
// encrypted with keys derived from a device secret) and against malicious
// corruption, including replay of stale database copies (a Merkle tree
// embedded in the log-structured store's location map, anchored by signed
// commit records and a one-way counter).
//
// On top of that trusted chunk store, TDB provides typed storage of Go
// objects with full transactional semantics, and collections with
// automatically maintained functional indexes (B-tree, dynamic hash table,
// list) queried by scan, exact match, and range.
//
// # Quickstart
//
//	reg := tdb.NewRegistry()
//	reg.Register(meterClass, func() tdb.Object { return &Meter{} })
//	db, err := tdb.Open(tdb.Options{Dir: "./device-db", Secret: secret, Registry: reg})
//	...
//	txn := db.Begin()
//	meters, _ := txn.CreateCollection("meters", byID)
//	meters.Insert(&Meter{ID: 1})
//	txn.Commit(true)
//
// See the examples directory for complete programs.
package tdb

import (
	"tdb/internal/backupstore"
	"tdb/internal/chunkstore"
	"tdb/internal/collection"
	"tdb/internal/core"
	"tdb/internal/objectstore"
	"tdb/internal/platform"
)

// DB is an open database. See core.DB for the full method set: Begin,
// BeginReadOnly, Close, Verify, Checkpoint, Clean, Stats, BackupFull,
// BackupIncremental, Scrub, Repair.
//
// DB.Begin starts a read-write transaction under strict two-phase locking;
// DB.BeginReadOnly starts a snapshot transaction that reads a consistent
// committed state without taking any locks — it never blocks on writers
// and never returns ErrLockTimeout (mutations fail with ErrReadOnlyTxn).
type DB = core.DB

// Options configures Open and Restore. There is one commit path and it has
// no knobs: every durable commit hardens in a round shared with the durable
// commits in flight beside it (a lone commit is a round of one), and log
// appends always batch through the write-behind tail buffer. Trusted memory
// holds two caches: location map nodes, sized by Options.CacheBytes, and
// decoded objects, a constant 8 MiB every open is served from;
// Iterator.SetPrefetch overrides the scan-prefetch window per scan.
//
// Dir or Store, Secret, Suite, Counter, Archive and Registry say what the
// database is. The device secret is handed over as bytes: on a device it
// comes from ROM, outside the attacker's store (paper §2), and in
// development tdbctl -secret-file reads it from a file kept outside the
// database directory. Every tuning field has a caller:
//
//   - LockTimeout: "the timeout interval can be tuned by the application"
//     (§4.1).
//   - DisableLocking: single-threaded applications may switch locking off
//     (§4.2.3); the TPC-B driver does.
//   - CheckpointBytes: the TPC-B driver defers checkpoints to 16 MiB of
//     residual log (the default is 4 MiB).
//   - MaxUtilization: the cleaner's utilization bound, which the Figure 11
//     sweep varies.
//   - SegmentSize, CacheBytes, Retry, DisableAutoClean and
//     DisableAutoCheckpoint: the chaos harness shrinks segments and the
//     map-node cache, drives cleaning and checkpoints as explicit actions,
//     and retries without sleeping.
//   - ReadonlyChecks: the Go stand-in for the paper's C++ const Refs; it
//     checks that objects opened read-only were not mutated.
//
// The one-way counter is used exactly when the suite is not "null": a
// secure database always detects replay.
type Options = core.Options

// Open opens or creates a database, performing recovery and tamper
// validation. It returns an error wrapping ErrTampered if the stored
// database fails validation (including replay of a stale copy).
func Open(opts Options) (*DB, error) { return core.Open(opts) }

// Restore rebuilds a database from a backup archive into a fresh location.
func Restore(opts Options, archive platform.ArchivalStore) (*DB, error) {
	return core.Restore(opts, archive)
}

// ErrTampered is the tamper-detection signal: validation of stored data,
// the signed database anchor, or the one-way counter failed.
var ErrTampered = chunkstore.ErrTampered

// Commit outcome errors. A Commit error matching neither means nothing was
// applied and the transaction is still active (retry or abort). ErrMaintenance
// means the commit applied — durably, if asked — and only post-commit
// maintenance failed. ErrNotDurable means the commit applied and is visible
// but was not acknowledged durable: it hardens with the next successful
// durable commit, Checkpoint or Close, and is lost by a crash before then,
// exactly like a nondurable commit (paper §3.2.2).
var (
	ErrMaintenance = chunkstore.ErrMaintenance
	ErrNotDurable  = chunkstore.ErrNotDurable
)

// Storage health errors. ErrIO is an environmental storage failure that
// persisted through retries (distinct from tampering — the bytes never
// arrived, as opposed to arriving wrong). ErrDegraded marks reads of chunks
// known to be damaged on disk: the rest of the database keeps working, and
// the damaged chunks can be healed with Scrub + Repair. A degraded read
// also matches ErrTampered, since verifiable damage is what quarantined
// the chunk.
var (
	ErrIO       = chunkstore.ErrIO
	ErrDegraded = chunkstore.ErrDegraded
)

// Storage-health types: scrubbing, quarantine, and repair from backups.
type (
	// ChunkID names a chunk of the underlying trusted chunk store (scrub
	// reports and repair results identify damage by chunk id).
	ChunkID = chunkstore.ChunkID
	// ScrubReport enumerates the damage a Scrub pass found.
	ScrubReport = chunkstore.ScrubReport
	// BadChunk describes one damaged chunk in a ScrubReport.
	BadChunk = chunkstore.BadChunk
	// RepairResult reports what Repair healed and what remains.
	RepairResult = backupstore.RepairResult
	// RetryPolicy tunes transient-I/O retry (Options.Retry).
	RetryPolicy = chunkstore.RetryPolicy
	// Stats is what DB.Stats reports: storage sizes, commit/cleaning
	// counters, and read-path telemetry (ReadSlowPaths — map-node fault-ins
	// — and the scan-prefetch counters:
	// coalesced reads and prefetched chunks). The
	// ReadCache* and PrefetchHits/PrefetchWasted fields are always zero:
	// the chunk store keeps no plaintext cache.
	Stats = chunkstore.Stats
)

// Object store types: persistent objects, pickling, class registry.
type (
	// Object is the interface persistent objects implement.
	Object = objectstore.Object
	// ObjectID names a persistent object.
	ObjectID = objectstore.ObjectID
	// ClassID identifies a persistent class.
	ClassID = objectstore.ClassID
	// Registry maps class ids to unpickling factories.
	Registry = objectstore.Registry
	// Pickler serializes object state.
	Pickler = objectstore.Pickler
	// Unpickler restores object state.
	Unpickler = objectstore.Unpickler
	// ObjectTxn is a raw object-store transaction (advanced use).
	ObjectTxn = objectstore.Txn
)

// NilObject is the zero ObjectID.
const NilObject = objectstore.NilObject

// NewRegistry creates an empty class registry.
func NewRegistry() *Registry { return objectstore.NewRegistry() }

// ClassIDFor derives a stable class id from a qualified name (the paper's
// class-id generation assistance, §4.1). Pair with Registry.RegisterNamed.
func ClassIDFor(name string) ClassID { return objectstore.ClassIDFor(name) }

// GobPickle and GobUnpickle are the encoding/gob convenience picklers.
var (
	GobPickle   = objectstore.GobPickle
	GobUnpickle = objectstore.GobUnpickle
)

// NewUnpicklerFor wraps encoded bytes in an Unpickler (mostly useful in
// tests and tools; Unpickle methods receive theirs from the store).
func NewUnpicklerFor(data []byte) *Unpickler { return objectstore.NewUnpickler(data) }

// OpenReadonly opens an object in read-only mode with a typed reference
// (raw object-store API).
func OpenReadonly[T Object](t *ObjectTxn, oid ObjectID) (objectstore.ReadonlyRef[T], error) {
	return objectstore.OpenReadonly[T](t, oid)
}

// OpenWritable opens an object in read-write mode with a typed reference
// (raw object-store API).
func OpenWritable[T Object](t *ObjectTxn, oid ObjectID) (objectstore.WritableRef[T], error) {
	return objectstore.OpenWritable[T](t, oid)
}

// Collection store types: transactions, handles, iterators, indexes, keys.
type (
	// Txn is a collection transaction (the paper's CTransaction).
	Txn = collection.CTransaction
	// Collection is a reference to a named collection within a transaction.
	Collection = collection.Handle
	// Iterator enumerates a query result set (insensitive iteration).
	Iterator = collection.Iterator
	// GenericIndexer is the polymorphic view of an index description.
	GenericIndexer = collection.GenericIndexer
	// IndexKind selects B-tree, hash table, or list organization.
	IndexKind = collection.IndexKind
	// Key is an index key with an order-preserving encoding.
	Key = collection.Key
	// UniqueViolationError reports objects removed by deferred unique-index
	// maintenance.
	UniqueViolationError = collection.UniqueViolationError
)

// Indexer describes one functional index over a collection of S objects
// with keys of type K.
type Indexer[S any, K Key] = collection.Indexer[S, K]

// Index organizations.
const (
	BTree     = collection.BTree
	HashTable = collection.HashTable
	List      = collection.List
)

// NewIndexer constructs an index description with an extractor function.
func NewIndexer[S any, K Key](name string, unique bool, kind IndexKind, extract func(S) K) *Indexer[S, K] {
	return collection.NewIndexer(name, unique, kind, extract)
}

// Key constructors.
type (
	// IntKey orders int64 values numerically.
	IntKey = collection.IntKey
	// UintKey orders uint64 values numerically.
	UintKey = collection.UintKey
	// StringKey orders strings lexicographically.
	StringKey = collection.StringKey
	// BytesKey orders byte strings lexicographically.
	BytesKey = collection.BytesKey
	// FloatKey orders float64 values numerically.
	FloatKey = collection.FloatKey
	// BoolKey orders false before true.
	BoolKey = collection.BoolKey
	// CompositeKey concatenates component keys.
	CompositeKey = collection.CompositeKey
)

// ReadAs dereferences an iterator's current object read-only with a typed
// assertion.
func ReadAs[T Object](it *Iterator) (T, error) { return collection.ReadAs[T](it) }

// WriteAs dereferences an iterator's current object writable with a typed
// assertion; affected indexes are maintained when the iterator closes.
func WriteAs[T Object](it *Iterator) (T, error) { return collection.WriteAs[T](it) }

// BackupInfo describes a backup stream.
type BackupInfo = backupstore.Info

// Collection-store errors, re-exported for error handling.
var (
	ErrDuplicateKey     = collection.ErrDuplicateKey
	ErrNoSuchCollection = collection.ErrNoSuchCollection
	ErrIteratorOpen     = collection.ErrIteratorOpen
	ErrLockTimeout      = objectstore.ErrLockTimeout
	ErrNotFound         = objectstore.ErrNotFound
	// ErrReadOnlyTxn is returned when a mutation is attempted in a snapshot
	// transaction (DB.BeginReadOnly).
	ErrReadOnlyTxn = objectstore.ErrReadOnlyTxn
)
