package objectstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tdb/internal/chunkstore"
)

// Config configures an object store.
type Config struct {
	// Chunks is the underlying chunk store. The object store assumes
	// ownership: no other component may allocate or write chunks in it.
	Chunks *chunkstore.Store
	// Registry resolves class ids during unpickling. Required.
	Registry *Registry
	// LockTimeout bounds lock waits; expiry breaks deadlocks (paper §4.1,
	// "the timeout interval can be tuned by the application"). Default
	// 250 ms.
	LockTimeout time.Duration
	// DisableLocking turns transactional locking off entirely "to avoid the
	// locking overhead in the absence of concurrent transactions" (§4.2.3).
	DisableLocking bool
	// ReadonlyChecks enables a debug validation that objects opened
	// read-only were not mutated (Go cannot enforce const statically the
	// way the paper's C++ Refs do).
	ReadonlyChecks bool
}

// Store is the object store. Its single state mutex serializes operations;
// the mutex is released while a transaction waits on an object lock
// (paper §4.2.3).
type Store struct {
	mu  sync.Mutex
	cfg Config

	chunks *chunkstore.Store
	locks  *lockTable
	// versions is the multi-version table backing read-only snapshot
	// transactions (BeginReadOnly); read-write transactions stage and
	// publish committed versions through it. Its decode table is the one
	// cache of decoded objects every open is served from (paper §4.2.2).
	versions *versionTable

	// rootOID is the committed root object pointer (paper §4.1: "the
	// application can register a 'root' object id with the object store"),
	// persisted in chunk rootChunkID.
	rootOID ObjectID

	closed bool
}

// Open initializes the object store over a chunk store. A fresh chunk store
// is formatted with a root-pointer chunk; an existing one must have been
// created by an object store with the same layout.
func Open(cfg Config) (*Store, error) {
	if cfg.Chunks == nil {
		return nil, errors.New("objectstore: config requires a chunk store")
	}
	if cfg.Registry == nil {
		return nil, errors.New("objectstore: config requires a class registry")
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = 250 * time.Millisecond
	}
	s := &Store{
		cfg:      cfg,
		chunks:   cfg.Chunks,
		locks:    newLockTable(),
		versions: newVersionTable(),
	}
	if err := s.initRoot(); err != nil {
		return nil, err
	}
	s.versions.rootOID = s.rootOID
	return s, nil
}

// rootChunkID is the well-known chunk holding the root object pointer. It
// is the first chunk the object store allocates in a fresh database.
const rootChunkID = chunkstore.ChunkID(1)

func (s *Store) initRoot() error {
	data, err := s.chunks.Read(rootChunkID)
	if err == nil {
		u := NewUnpickler(data)
		s.rootOID = u.ObjectID()
		if uerr := u.Err(); uerr != nil {
			return fmt.Errorf("objectstore: corrupt root pointer: %w", uerr)
		}
		return nil
	}
	if errors.Is(err, chunkstore.ErrNotAllocated) {
		// Fresh database: claim chunk 1 for the root pointer.
		cid, aerr := s.chunks.AllocateChunkID()
		if aerr != nil {
			return aerr
		}
		if cid != rootChunkID {
			return fmt.Errorf("objectstore: chunk store is not fresh (first id %d); refusing to share it", cid)
		}
		p := NewPickler()
		p.ObjectID(NilObject)
		b := s.chunks.NewBatch()
		b.Write(cid, p.Bytes())
		if cerr := s.chunks.Commit(b, true); cerr != nil {
			return cerr
		}
		s.rootOID = NilObject
		return nil
	}
	return err
}

// Close flushes and closes the underlying chunk store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

// closeLocked tears the store down with the mutex held by design: closing
// must exclude every other store operation. Caller holds s.mu.
func (s *Store) closeLocked() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.chunks.Close()
}

// Chunks exposes the underlying chunk store (for backups and stats).
func (s *Store) Chunks() *chunkstore.Store { return s.chunks }

// Root returns the registered root object id (NilObject if none).
func (s *Store) Root() ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rootOID
}

// Begin starts a read-write transaction.
func (s *Store) Begin() *Txn {
	return &Txn{
		s:      s,
		active: true,
		locks:  make(map[ObjectID]lockMode),
		opened: make(map[ObjectID]*txnObject),
	}
}

// BeginReadOnly starts a snapshot transaction: it observes the committed
// state as of the latest published commit and keeps observing exactly that
// state no matter what commits afterwards. Snapshot transactions take no
// object locks and no lock-table entries, never block on writers, and can
// never fail with ErrLockTimeout; mutating operations return
// ErrReadOnlyTxn. End one with Commit or Abort (equivalent) so the pinned
// versions become reclaimable.
func (s *Store) BeginReadOnly() *Txn {
	pin, root := s.versions.pin()
	return &Txn{
		s:        s,
		readOnly: true,
		roActive: true,
		pin:      pin,
		roRoot:   root,
		snap:     snapMemos.Get().(*snapMemo),
	}
}

// committedBytes returns oid's committed pickled state: re-pickled from the
// decode table's shared instance on a hit, read from the chunk store on a
// miss. The caller holds a lock on oid that excludes writers.
func (s *Store) committedBytes(oid ObjectID) ([]byte, error) {
	if shared := s.versions.decoded.get(oid); shared != nil {
		return pickleObject(shared), nil
	}
	return s.readCommitted(oid)
}

// readCommitted reads oid's chunk, reporting an absent chunk as ErrNotFound.
func (s *Store) readCommitted(oid ObjectID) ([]byte, error) {
	data, err := s.chunks.Read(chunkstore.ChunkID(oid))
	if errors.Is(err, chunkstore.ErrNotAllocated) || errors.Is(err, chunkstore.ErrNotWritten) {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, oid)
	}
	return data, err
}

// decodeCommitted unpickles data, oid's committed chunk state, and offers the
// instance to the decode table. It is the miss path of every shared open —
// snapshot and 2PL read-only alike (a 2PL prefetch puts its whole batch
// at once): the caller read data while holding a version-table pin, which
// is what makes decodedPut's no-chain re-check sound.
func (s *Store) decodeCommitted(oid ObjectID, data []byte) (Object, error) {
	obj, err := unpickleObject(s.cfg.Registry, data)
	if err != nil {
		return nil, err
	}
	s.versions.decodedPut(decodedEntry{oid: oid, obj: obj, size: int64(len(data))})
	return obj, nil
}

// Stats reports cache occupancy and concurrency-control state.
type Stats struct {
	// CachedObjects and CacheBytes are the decode table's resident objects
	// and their pickled bytes.
	CachedObjects int
	CacheBytes    int64
	// LockEntries is the number of live lock-table entries (snapshot
	// transactions contribute zero).
	LockEntries int
	// VersionChains is the number of objects with live version history
	// retained for snapshot readers.
	VersionChains int
}

// Stats returns decode-table occupancy and concurrency-control statistics.
func (s *Store) Stats() Stats {
	n, bytes := s.versions.decodedResidency()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		CachedObjects: n,
		CacheBytes:    bytes,
		LockEntries:   s.locks.entryCount(),
		VersionChains: s.versions.chainCount(),
	}
}
