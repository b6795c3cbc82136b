package chunkstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Store is a log-structured, encrypted, tamper-evident chunk store. All
// methods are safe for concurrent use. Commits run a two-stage pipeline:
// payload encryption and hashing execute outside the state mutex, fanned
// out across CPUs, and only log appends plus the staged in-memory merge
// serialize under the mutex (see commit_pipeline.go). Reads snapshot the
// chunk's map entry under a short shared-lock section and run the segment
// I/O, hash validation, and decryption with no lock held, revalidating the
// snapshot afterwards (see Read and DESIGN.md §7.7). Decoded objects are
// cached a layer up, in the object store's decode table.
type Store struct {
	mu  sync.RWMutex
	cfg Config

	suite sec.Suite
	segs  *segmentSet
	lm    *locMap
	alloc *allocator

	// flights coalesces concurrent reads of the same chunk so a
	// hot-key storm pays one segment read + validation + decrypt instead of
	// one per reader. Created at Open and never reassigned. The commit path
	// marks in-flight reads of rewritten or deallocated chunks stale (see
	// readflight.go).
	flights *readFlights
	// locEpoch counts exclusive-lock publications that can move or replace
	// a committed chunk record: sealed commits and cleaner relocations, both
	// bumped while holding mu exclusively. Off-mutex reads snapshot it in
	// planRead and revalidate in finishRead; an unchanged epoch proves the
	// snapshot's (loc, hash) still describes the chunk's current version.
	locEpoch atomic.Uint64
	// readSlow counts reads that fell back to the exclusive-lock
	// read path (map node not resident in memory, or repeated relocation
	// races). The happy path never touches the exclusive lock; tests assert
	// this stays zero for warm-map workloads.
	readSlow atomic.Int64
	// coalescedReads counts batch segment reads that merged two or more
	// physically adjacent records into one ReadAt; coalescedChunks counts the
	// records those merged reads delivered. prefetchedChunks counts chunks
	// the batch read path fetched and validated on behalf of a prefetch hint
	// (see readbatch.go).
	coalescedReads   atomic.Int64
	coalescedChunks  atomic.Int64
	prefetchedChunks atomic.Int64
	// ivGen hands out IV-sequence generations (one per commit preparation,
	// checkpoint, or cleaner relocation). It never repeats across the life
	// of the database: the superblock persists a reservation high-water mark
	// (ivGenLimit) and Open ratchets ivGen past it, so a seed used before a
	// crash or restart can never be handed out again under the same key.
	ivGen atomic.Uint64
	// ivGenLimit is the highest IV generation durably reserved in the
	// superblock. Generations at or below it may be consumed freely; going
	// past it first extends the reservation with a superblock write (see
	// nextIVGen). Mutated only under mu; read lock-free on the fast path.
	ivGenLimit atomic.Uint64
	// pendingRewind, when non-nil, marks orphaned log records appended by a
	// failed commit. The next append-capable operation must truncate them
	// away before writing (completePendingRewindLocked); otherwise a later
	// successful commit would let crash recovery replay the orphans.
	pendingRewind *tailMark

	// stampCtr is the counter stamp on the newest durable commit record
	// appended, and durableSeq that record's sequence number: a harden is
	// owed while durableSeq is ahead of what the coordinator has
	// acknowledged (hardenOwedLocked). sealedCtr is the stamp the newest
	// harden round sealed at and sealedSeq the newest commit record that
	// seal covers: durable records appended behind the seal are stamped
	// sealedCtr+1, so every round has a stamp of its own (see
	// groupcommit.go). A round seals a new stamp only while fewer than
	// hardenDepth sealed stamps await the hardware counter, so no stamp
	// ever exceeds counterVal+hardenDepth+1. All four are mutated only
	// under mu.
	stampCtr   uint64
	durableSeq uint64
	sealedCtr  uint64
	sealedSeq  uint64
	// gc coordinates harden rounds (stage 1, stage 2, followers). Created
	// at Open and never reassigned.
	gc *groupCommitter

	// commitSeq is the sequence number of the last commit record appended.
	commitSeq uint64
	// counterVal caches the one-way counter's current value. It is advanced
	// only by the holder of the stage-2 turn (advanceCounter), off the store
	// mutex, and read anywhere.
	counterVal atomic.Uint64
	// lastCkpt locates the most recent checkpoint record.
	lastCkpt Location
	// residualBytes counts log bytes appended since the last checkpoint; it
	// triggers automatic checkpoints and bounds recovery replay.
	residualBytes int64
	// superSeq numbers superblock writes for the ping-pong slots.
	superSeq uint64
	// superDirty is true while the newest superblock slot has been written
	// but not yet fsynced (a checkpoint defers the slot's sync into the next
	// log-tail harden barrier; see writeSuperblock). At most one unsynced
	// slot is ever outstanding: a dirty slot is synced before any new slot
	// write, or the ping-pong alternation would overwrite the last durable
	// slot. Mutated only under mu.
	superDirty bool
	// superFile is the cached superblock file handle, opened lazily by
	// readSuperblock/writeSuperblock and closed in Close. Accessed only under
	// mu (or single-threaded during Open).
	superFile platform.File
	// chunkCount tracks allocated-and-written chunks.
	chunkCount int64
	// snapshots tracks open snapshots; the cleaner must not free segments
	// they can reference.
	snapshots map[*Snapshot]struct{}
	// quarantine holds chunks a scrub (or an organic read) found damaged,
	// keyed to a human-readable reason. Reads of quarantined chunks fail
	// with ErrDegraded without touching storage; a committed rewrite of the
	// chunk (backupstore.Repair, or any application write) lifts the
	// quarantine. The set is in-memory only: it is a cache of verifiable
	// damage, rediscovered by the next scrub after a restart.
	quarantine map[ChunkID]string
	// maintenance guards against recursive post-commit maintenance.
	maintenance bool
	// closed is atomic so Commit can reject work before running the (costly)
	// stage-1 crypto pipeline, without taking the state mutex. It is written
	// only under mu.
	closed atomic.Bool

	statCleanings    int64
	statCleanedBytes int64
	statCheckpoints  int64
}

// Open opens an existing chunk store or formats a new one if the store
// contains no database. Opening an existing store performs full crash
// recovery and tamper validation of the recovered state; it returns
// ErrTampered if the database fails validation (including replay of a stale
// copy).
func Open(cfg Config) (*Store, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &Store{
		cfg:        cfg,
		suite:      cfg.Suite,
		segs:       newSegmentSet(cfg.Store, cfg.Retry),
		snapshots:  make(map[*Snapshot]struct{}),
		quarantine: make(map[ChunkID]string),
		gc:         newGroupCommitter(),
	}
	if cfg.UseCounter {
		v, err := cfg.Counter.Read()
		if err != nil {
			return nil, fmt.Errorf("chunkstore: reading one-way counter: %w", err)
		}
		s.counterVal.Store(v)
		s.stampCtr, s.sealedCtr = v, v
	}
	s.flights = newReadFlights()
	// readSuperblock caches the superblock handle on s.superFile; failed
	// opens must release it (successful opens keep it until Store.Close).
	opened := false
	defer func() {
		if !opened && s.superFile != nil {
			s.superFile.Close()
			s.superFile = nil
		}
	}()
	sb, err := s.readSuperblock()
	if errors.Is(err, errNoSuperblock) {
		if err := s.format(); err != nil {
			return nil, err
		}
		opened = true
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	if err := s.recover(sb); err != nil {
		return nil, err
	}
	// Every generation the previous process lifetime could have consumed lies
	// at or below the superblock's reservation mark, so ratcheting past it
	// guarantees no IV seed is ever reused across restarts. The commitSeq
	// ratchet is kept as a second floor for pre-reservation superblocks
	// (ivGenReserved == 0), restoring at least the old behavior for them.
	s.ratchetIVGen(sb.ivGenReserved)
	s.ratchetIVGen(s.commitSeq)
	// Nothing above the burned range is reserved yet; the first encryption
	// after open extends the reservation before using its generation.
	s.ivGenLimit.Store(s.ivGen.Load())
	opened = true
	return s, nil
}

// ratchetIVGen raises ivGen to at least v (never lowers it).
func (s *Store) ratchetIVGen(v uint64) {
	for {
		cur := s.ivGen.Load()
		if cur >= v || s.ivGen.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ivGenReserveBlock is how many IV generations one superblock write reserves
// beyond the generation that triggered the extension. Each block admits a
// million generations before the next extension write, while the 44-bit
// generation space (64-bit seed minus ivGenBits of slot) leaves room for
// millions of reopens each burning the tail of an unused block.
const ivGenReserveBlock = 1 << 20

// nextIVGenLocked returns a fresh IV generation, durably extending the
// superblock reservation first when the generation lies beyond it. Caller
// holds s.mu.
func (s *Store) nextIVGenLocked() (uint64, error) {
	gen := s.ivGen.Add(1)
	if err := s.extendIVReservationLocked(gen); err != nil {
		return 0, err
	}
	return gen, nil
}

// nextIVGen is nextIVGenLocked for callers not holding s.mu (commit stage 1).
// The fast path is a single atomic add plus load; the mutex is taken only
// when the reservation block is exhausted (once per ivGenReserveBlock
// generations).
func (s *Store) nextIVGen() (uint64, error) {
	gen := s.ivGen.Add(1)
	if gen <= s.ivGenLimit.Load() {
		return gen, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.extendIVReservationLocked(gen); err != nil {
		return 0, err
	}
	return gen, nil
}

// extendIVReservationLocked makes generations up to gen+ivGenReserveBlock
// durable in the superblock. The write must complete before any generation
// beyond the previous limit is used for an encryption: a crash would
// otherwise let the next open hand the same generations out again. A failed
// extension burns gen in memory without it ever seeding an encryption, which
// is safe.
func (s *Store) extendIVReservationLocked(gen uint64) error {
	if gen <= s.ivGenLimit.Load() {
		return nil
	}
	newLimit := gen + ivGenReserveBlock
	if err := s.writeSuperblock(s.lastCkpt, newLimit, true); err != nil {
		return fmt.Errorf("chunkstore: extending IV generation reservation: %w", err)
	}
	s.ivGenLimit.Store(newLimit)
	return nil
}

// format initializes an empty database.
func (s *Store) format() error {
	s.alloc = newAllocator()
	s.lm = newLocMap(s, s.cfg.Fanout)
	// Pre-seed the IV reservation in memory so the format-time checkpoint
	// does not trigger an extension superblock write pointing at a not yet
	// existing checkpoint. The checkpoint's own superblock write persists the
	// limit; a crash before it is synced leaves no superblock, so the store
	// formats afresh (truncating the segment) and no encryption under the
	// burned generations survives.
	s.ivGenLimit.Store(ivGenReserveBlock)
	if _, err := s.segs.create(); err != nil {
		return err
	}
	if err := s.checkpointLocked(); err != nil {
		return fmt.Errorf("chunkstore: formatting: %w", err)
	}
	// Format must end with a durable anchor: unlike a steady-state
	// checkpoint there is no previous slot to fall back to, so the deferred
	// sync is paid here rather than at the first harden barrier.
	if err := s.syncSuperIfDirtyLocked(); err != nil {
		return fmt.Errorf("chunkstore: formatting: %w", err)
	}
	return nil
}

// Close checkpoints and releases the store. Further operations fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil
	}
	// Discard any orphaned tail from a failed commit so it cannot be
	// mistaken for log content by offline tools; recovery would discard it
	// anyway (it follows the last durable commit record).
	err := s.completePendingRewindLocked()
	// Pay any harden still owed before shutting the segments down: the
	// pending records are already applied and visible, and their waiters
	// must be released before Close marks the store closed.
	if s.hardenOwedLocked() {
		if herr := s.hardenLocked(); herr != nil && err == nil {
			err = herr
		}
	}
	if s.residualBytes > 0 {
		if cerr := s.checkpointLocked(); cerr != nil && err == nil {
			err = cerr
		}
	}
	// Close is a flush point: nondurable appends still in the write-behind
	// buffer reach the file (unsynced, matching the pre-buffer behavior of
	// nondurable commits at shutdown).
	if ferr := s.segs.flushLocked(); ferr != nil && err == nil {
		err = ferr
	}
	// Pay the superblock fsync the shutdown checkpoint deferred, so reopen
	// recovers from the final anchor instead of replaying the residual log
	// behind the previous one.
	if serr := s.syncSuperIfDirtyLocked(); serr != nil && err == nil {
		err = serr
	}
	if cerr := s.segs.closeAll(); cerr != nil && err == nil {
		err = cerr
	}
	if cerr := s.closeSuperFileLocked(); cerr != nil && err == nil {
		err = cerr
	}
	s.closed.Store(true)
	return err
}

// closeSuperFileLocked releases the cached superblock handle.
//
//tdblint:serial Close tears down the handle under the store mutex so no checkpoint can race the shutdown
func (s *Store) closeSuperFileLocked() error {
	if s.superFile == nil {
		return nil
	}
	err := s.superFile.Close()
	s.superFile = nil
	return err
}

// AllocateChunkID returns a fresh chunk id (paper Figure 2). The allocation
// is transient until a write to the id commits; ids never written are
// reclaimed automatically after a crash, and callers may return them early
// with Release.
func (s *Store) AllocateChunkID() (ChunkID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	cid := s.alloc.allocate()
	// Defensive cross-check: the id must have no live map entry. A non-empty
	// entry means the allocator state was corrupted (e.g., a tampered
	// checkpoint smuggled a live id onto the free list, hoping a later write
	// would silently destroy data).
	e, err := s.lm.get(cid)
	if err != nil {
		return 0, err
	}
	if !e.isEmpty() {
		return 0, fmt.Errorf("%w: allocator produced live chunk id %d", ErrTampered, cid)
	}
	return cid, nil
}

// Release returns an allocated-but-never-written id to the allocator (used
// when a transaction that inserted objects aborts, §4.2.3).
func (s *Store) Release(cid ChunkID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if !s.alloc.isAllocated(cid) {
		return fmt.Errorf("%w: %d", ErrNotAllocated, cid)
	}
	e, err := s.lm.get(cid)
	if err != nil {
		return err
	}
	if !e.isEmpty() {
		return fmt.Errorf("%w: Release of written chunk %d (use Deallocate)", ErrUsage, cid)
	}
	s.alloc.release(cid)
	return nil
}

// Read returns the last committed state of cid (paper Figure 2). It signals
// ErrNotWritten for ids without committed state and ErrTampered if the
// stored chunk fails validation against the Merkle tree.
//
// Reads coalesce per chunk (one reader does the work, concurrent readers of
// the same chunk share its result) and run the segment I/O, hash
// validation, and decryption with no lock held: only a short shared-lock
// section snapshots the chunk's map entry beforehand and revalidates it
// afterwards, so reads proceed concurrently with each other and exclusive
// sections stay short. Reads fall back to the exclusive-lock path only when
// the map node holding the entry is not resident in memory.
func (s *Store) Read(cid ChunkID) ([]byte, error) {
	for {
		data, err, stale := s.flights.do(cid, func() ([]byte, error) {
			return s.readMiss(cid)
		})
		if !stale {
			return data, err
		}
		// A commit rewrote or deallocated the chunk while the shared flight
		// was in progress: read the new state.
	}
}

// readMissRetries bounds how often an off-mutex read retries after losing a
// race with the cleaner or a commit before it gives up and serializes under
// the exclusive lock. Losing twice in a row already requires back-to-back
// relocations of the same chunk mid-read.
const readMissRetries = 4

// readMiss performs one read: snapshot under the shared lock, fetch +
// validate + decrypt with no lock held, revalidate under the shared lock. It retries when a relocation invalidated the snapshot
// mid-read and falls back to the exclusive-lock path when the map entry is
// not resident or the retry budget is exhausted.
func (s *Store) readMiss(cid ChunkID) ([]byte, error) {
	for attempt := 0; attempt < readMissRetries; attempt++ {
		p, err := s.planRead(cid)
		if err != nil {
			if p == nil {
				return nil, err
			}
			// Planning itself detected per-chunk damage (dangling segment
			// reference, out-of-bounds record). Revalidate under the
			// exclusive lock and quarantine, exactly as a locked read would.
			if err, done := s.failTamperedRead(cid, p.e, err); done {
				return nil, err
			}
			continue
		}
		if p == nil {
			// Map node not resident: reading it requires I/O and LRU
			// mutation, which belong under the exclusive lock.
			break
		}
		plain, rerr := s.executeRead(p)
		data, err, done := s.finishRead(p, plain, rerr)
		if done {
			return data, err
		}
	}
	s.readSlow.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readLocked(cid)
}

// readPlan is the shared-lock snapshot one off-mutex read validates
// against: the chunk's map entry, its pinned segment, the epoch stamp, and
// a buffer pre-filled with any record bytes still in the write-behind
// buffer (those may be trimmed after the lock is released; flushed bytes
// below the buffer are immutable once published).
type readPlan struct {
	cid ChunkID
	e   entry
	seg *segment
	buf []byte
	// fromFile is the prefix of buf the off-lock step must read from the
	// segment file; buf[fromFile:] was copied from the write-behind buffer
	// under the lock.
	fromFile int64
	stamp    uint64
	// flight is the singleflight registration a batch read claimed for this
	// chunk, so concurrent point readers follow the batch instead of paying
	// the same I/O. completeBatchPlan releases it; nil for point-read plans
	// (Read registers through flights.do itself).
	flight *readFlight
}

// planRead snapshots everything an off-mutex read needs under the shared
// lock. It returns (nil, nil) when the chunk's map node is not resident in
// memory — the caller falls back to the exclusive path — and a non-nil plan
// alongside an ErrTampered error when the entry itself is damaged, so the
// caller can route the failure through the quarantine protocol.
func (s *Store) planRead(cid ChunkID) (*readPlan, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.planReadLocked(cid)
}

// planReadLocked is planRead's body, shared with the batch read planner
// (which plans a whole window of chunks under one shared-lock section).
// Caller holds s.mu (shared suffices) and has checked the closed flag.
func (s *Store) planReadLocked(cid ChunkID) (*readPlan, error) {
	e, resident := s.lm.getCached(cid)
	if !resident {
		return nil, nil
	}
	if e.isEmpty() {
		if s.alloc.isAllocated(cid) {
			return nil, fmt.Errorf("%w: %d", ErrNotWritten, cid)
		}
		return nil, fmt.Errorf("%w: %d", ErrNotAllocated, cid)
	}
	if reason, ok := s.quarantine[cid]; ok {
		return nil, degradedReadErr(cid, fmt.Errorf("quarantined: %s (%w)", reason, ErrTampered))
	}
	p := &readPlan{cid: cid, e: e, stamp: s.locEpoch.Load()}
	seg, ok := s.segs.segs[e.loc.Seg]
	if !ok {
		return p, fmt.Errorf("%w: reference to missing segment %d", ErrTampered, e.loc.Seg)
	}
	if int64(e.loc.Off)+int64(e.loc.Len) > seg.size || e.loc.Len < recordHeaderSize {
		return p, fmt.Errorf("%w: record %v out of segment bounds", ErrTampered, e.loc)
	}
	p.buf = make([]byte, e.loc.Len)
	p.fromFile = int64(len(p.buf))
	off := int64(e.loc.Off)
	if ss := s.segs; seg == ss.wbSeg && len(ss.wb) > 0 && off+int64(len(p.buf)) > ss.wbOff {
		// Part of the record still lives in the write-behind buffer, which
		// may flush or rewind once the lock drops: copy that suffix now.
		// The flushed prefix below wbOff is stable — published record bytes
		// are never rewritten, and rewind only discards unpublished tails.
		p.fromFile = 0
		if off < ss.wbOff {
			p.fromFile = ss.wbOff - off
		}
		if start := off + p.fromFile - ss.wbOff; start < int64(len(ss.wb)) {
			copy(p.buf[p.fromFile:], ss.wb[start:])
		}
	}
	// Pin the segment so the cleaner cannot close its file handle while the
	// off-lock read is using it (free defers the close to the last unpin).
	seg.readers.Add(1)
	p.seg = seg
	return p, nil
}

// executeRead runs the expensive half of an off-mutex read — segment I/O,
// record parsing, Merkle hash validation, decryption — with no lock held.
func (s *Store) executeRead(p *readPlan) ([]byte, error) {
	if p.fromFile > 0 {
		if err := s.segs.fileReadAt(p.seg, p.buf[:p.fromFile], int64(p.e.loc.Off)); err != nil {
			return nil, err
		}
	}
	typ, body, err := parseRecordBytes(p.e.loc, p.buf)
	if err != nil {
		return nil, err
	}
	return s.validateChunkRecord(p.cid, p.e, typ, body)
}

// finishRead revalidates a completed off-lock read under the shared lock.
// done=false means the snapshot went stale (the
// cleaner or a commit moved the record mid-read) and the caller must retry;
// the read's outcome — success or failure — is discarded, because it was
// computed against bytes that may no longer be the chunk's current version.
func (s *Store) finishRead(p *readPlan, plain []byte, rerr error) (data []byte, err error, done bool) {
	s.mu.RLock()
	s.segs.unpinReaderLocked(p.seg)
	closed := s.closed.Load()
	reason, quarantined := s.quarantine[p.cid]
	current := s.locEpoch.Load() == p.stamp
	if !current {
		// The epoch moved, but most movements touch other chunks: the read
		// is still good if this chunk's entry is unchanged.
		if cur, resident := s.lm.getCached(p.cid); resident && cur.loc == p.e.loc && sec.HashEqual(cur.hash, p.e.hash) {
			current = true
		}
	}
	s.mu.RUnlock()
	switch {
	case closed:
		return nil, ErrClosed, true
	case quarantined:
		// A scrub quarantined the chunk while the read was in flight.
		return nil, degradedReadErr(p.cid, fmt.Errorf("quarantined: %s (%w)", reason, ErrTampered)), true
	case !current:
		return nil, nil, false
	case rerr != nil:
		if errors.Is(rerr, ErrTampered) && !errors.Is(rerr, ErrIO) {
			if err, done := s.failTamperedRead(p.cid, p.e, rerr); done {
				return nil, err, true
			}
			// The entry moved between the revalidation above and the
			// exclusive-lock confirmation: the failure was computed against a
			// superseded snapshot, not damage. Retry.
			return nil, nil, false
		}
		return nil, rerr, true
	}
	return plain, nil, true
}

// failTamperedRead handles a validation failure from the off-lock read
// path: under the exclusive lock it confirms the failing snapshot still
// describes the chunk's current version, then quarantines. done=false means
// the entry moved mid-read — the failure was read against a stale snapshot,
// not damage — and the caller must retry.
func (s *Store) failTamperedRead(cid ChunkID, e entry, rerr error) (err error, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failTamperedReadLocked(cid, e, rerr)
}

func (s *Store) failTamperedReadLocked(cid ChunkID, e entry, rerr error) (error, bool) {
	if s.closed.Load() {
		return ErrClosed, true
	}
	cur, err := s.lm.get(cid)
	if err != nil {
		return err, true
	}
	if cur.isEmpty() || cur.loc != e.loc || !sec.HashEqual(cur.hash, e.hash) {
		return nil, false
	}
	// Same damage a locked read would have found: degrade the chunk and
	// quarantine it so later reads fail fast without touching storage.
	s.quarantine[cid] = rerr.Error()
	return degradedReadErr(cid, rerr), true
}

func (s *Store) readLocked(cid ChunkID) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	e, err := s.lm.get(cid)
	if err != nil {
		return nil, err
	}
	if e.isEmpty() {
		if s.alloc.isAllocated(cid) {
			return nil, fmt.Errorf("%w: %d", ErrNotWritten, cid)
		}
		return nil, fmt.Errorf("%w: %d", ErrNotAllocated, cid)
	}
	if reason, ok := s.quarantine[cid]; ok {
		return nil, degradedReadErr(cid, fmt.Errorf("quarantined: %s (%w)", reason, ErrTampered))
	}
	plain, err := s.readChunkAtLocked(cid, e)
	if err != nil {
		// Damage confined to this chunk's stored bytes degrades the chunk
		// (and quarantines it) rather than failing like whole-store
		// tampering; environmental I/O failures pass through untouched.
		if errors.Is(err, ErrTampered) && !errors.Is(err, ErrIO) {
			s.quarantine[cid] = err.Error()
			return nil, degradedReadErr(cid, err)
		}
		return nil, err
	}
	return plain, nil
}

// readChunkAtLocked fetches, validates, and decrypts the chunk version at e.
func (s *Store) readChunkAtLocked(cid ChunkID, e entry) ([]byte, error) {
	typ, body, err := s.segs.readRecord(e.loc)
	if err != nil {
		return nil, err
	}
	return s.validateChunkRecord(cid, e, typ, body)
}

// validateChunkRecord checks a fetched record against the chunk's map entry
// and decrypts it: pure computation over the supplied bytes, shared by the
// locked read path and the off-mutex one (executeRead).
func (s *Store) validateChunkRecord(cid ChunkID, e entry, typ byte, body []byte) ([]byte, error) {
	if typ != recWrite {
		return nil, fmt.Errorf("%w: chunk %d record at %v has type %d", ErrTampered, cid, e.loc, typ)
	}
	gotCid, ciphertext, err := parseWriteRecord(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if gotCid != cid {
		return nil, fmt.Errorf("%w: record at %v names chunk %d, want %d", ErrTampered, e.loc, gotCid, cid)
	}
	if !sec.HashEqual(s.suite.Hash(ciphertext), e.hash) {
		return nil, fmt.Errorf("%w: chunk %d fails hash validation", ErrTampered, cid)
	}
	plain, err := s.suite.Decrypt(ciphertext)
	if err != nil {
		return nil, fmt.Errorf("%w: decrypting chunk %d: %v", ErrTampered, cid, err)
	}
	return plain, nil
}

// batch op kinds.
const (
	opWrite = iota
	opDealloc
	// opRestore force-allocates a specific id; used only by the backup
	// store's validated restore.
	opRestore
)

type batchOp struct {
	kind int
	cid  ChunkID
	data []byte
}

// Batch groups chunk operations into one atomic commit (paper §3.1:
// "several operations can be grouped into a single commit operation that is
// atomic with respect to crashes").
type Batch struct {
	ops []batchOp
}

// NewBatch returns an empty operation batch.
func (s *Store) NewBatch() *Batch { return &Batch{} }

// Write sets the state of cid to data at commit. The data slice is retained
// until the batch commits.
func (b *Batch) Write(cid ChunkID, data []byte) {
	b.ops = append(b.ops, batchOp{kind: opWrite, cid: cid, data: data})
}

// Deallocate frees cid and its state at commit.
func (b *Batch) Deallocate(cid ChunkID) {
	b.ops = append(b.ops, batchOp{kind: opDealloc, cid: cid})
}

// RestoreWrite force-writes cid regardless of allocation state, claiming
// the id. It exists for the backup store's validated restore, which must
// reproduce chunks under their original ids; applications use Write.
func (b *Batch) RestoreWrite(cid ChunkID, data []byte) {
	b.ops = append(b.ops, batchOp{kind: opRestore, cid: cid, data: data})
}

// Len returns the number of staged operations.
func (b *Batch) Len() int { return len(b.ops) }

// Commit applies the batch atomically. A durable commit survives crashes; a
// nondurable commit is guaranteed *not* to survive a crash unless a
// subsequent durable commit completes (paper §3.2.2). A durable commit
// appends its record and hardens it — one log sync plus one counter advance
// — in a round shared with every durable commit in flight beside it; a lone
// commit is a round of one (see groupcommit.go).
//
// The failure contract, stated once for every layer above:
//
//   - An error matching neither ErrMaintenance nor ErrNotDurable means
//     nothing was applied. Atomicity holds in memory as well as on disk:
//     location map, allocator, accounting, and the readable state of every
//     chunk are exactly as before the call, and the batch's operations
//     remain staged so the caller may retry the same Batch.
//   - ErrMaintenance means the commit fully applied (durably, if requested)
//     and only post-commit maintenance failed.
//   - ErrNotDurable means the commit applied and is visible, but was not
//     acknowledged durable: it is exactly a §3.2.2 nondurable commit. It
//     hardens with the next successful durable commit, checkpoint or Close,
//     and is lost by a crash before then. When maintenance and the harden
//     both fail, ErrNotDurable is the one reported.
//
// Batches larger than MaxBatchOps are rejected with ErrBatchTooLarge.
//
// Commit is PrepareBatch + CommitPrepared + AwaitDurable; callers that hold
// their own lock around the store (like the object store) use the stages
// directly so only stage 2 runs inside their critical section.
func (s *Store) Commit(b *Batch, durable bool) error {
	announced := s.AnnounceDurable(durable)
	p, err := s.PrepareBatch(b)
	if err != nil {
		if announced {
			s.RetractDurable()
		}
		return err
	}
	ticket, err := s.CommitPrepared(b, p, durable)
	if err != nil && !errors.Is(err, ErrMaintenance) {
		if announced {
			s.RetractDurable()
		}
		return err
	}
	if werr := s.AwaitDurable(ticket); werr != nil {
		return werr
	}
	return err
}

// AnnounceDurable tells the harden coordinator that a durable commit is
// being prepared, so a round leader's batching window waits for its record
// instead of syncing just before it arrives. It reports whether the
// announcement was made (durable commits only). Callers announce before
// stage 1 and must balance the announcement exactly once: the commit
// record's append settles it implicitly; on any path where CommitPrepared
// does not seal (preparation failure, commit error other than
// ErrMaintenance), call RetractDurable.
func (s *Store) AnnounceDurable(durable bool) bool {
	if !durable {
		return false
	}
	s.gc.addInbound(1)
	return true
}

// RetractDurable balances an AnnounceDurable whose commit never appended.
func (s *Store) RetractDurable() {
	s.gc.addInbound(-1)
}

// PreparedBatch holds commit stage-1 output: every write payload of one
// batch encrypted and hashed, ready to append. It is bound to the batch
// contents at preparation time and to the store that prepared it.
type PreparedBatch struct {
	s    *Store
	prep []preparedOp
	n    int
}

// PrepareBatch runs commit stage 1 — encrypting and hashing the batch's
// write payloads, fanned out across CommitWorkers goroutines — without
// taking the store mutex. The only store state it touches is the IV
// generation counter (lock-free on the fast path), so callers holding
// their own locks around CommitPrepared can run preparation outside them.
// The batch must not be modified between PrepareBatch and CommitPrepared.
func (s *Store) PrepareBatch(b *Batch) (*PreparedBatch, error) {
	if len(b.ops) > MaxBatchOps {
		return nil, fmt.Errorf("%w: %d operations (max %d)", ErrBatchTooLarge, len(b.ops), MaxBatchOps)
	}
	// Cheap closed check before stage 1, so commits against a closed store
	// fail fast instead of encrypting and hashing a whole batch first. The
	// authoritative check still happens under the mutex in CommitPrepared.
	if s.closed.Load() {
		return nil, ErrClosed
	}
	gen, err := s.nextIVGen()
	if err != nil {
		return nil, err
	}
	prep, err := prepareBatch(s.suite, b.ops, gen, s.cfg.CommitWorkers)
	if err != nil {
		return nil, err
	}
	return &PreparedBatch{s: s, prep: prep, n: len(b.ops)}, nil
}

// CommitTicket is CommitPrepared's receipt. A durable commit's harden (log
// sync + counter advance) is still owed when CommitPrepared returns;
// AwaitDurable blocks until it is paid. The zero ticket — what a nondurable
// commit gets — owes nothing.
type CommitTicket struct {
	s   *Store
	seq uint64
}

// CommitPrepared runs commit stage 2 under the store mutex: validate,
// append, merge, seal (commit_pipeline.go). Error semantics match Commit,
// except that a durable commit returns with its harden still owed — the
// caller completes it with AwaitDurable on the returned ticket. The ticket
// is valid (and AwaitDurable required) even when the error matches
// ErrMaintenance, since the commit itself applied.
func (s *Store) CommitPrepared(b *Batch, p *PreparedBatch, durable bool) (CommitTicket, error) {
	if p == nil || p.s != s {
		return CommitTicket{}, fmt.Errorf("%w: prepared batch does not belong to this store", ErrUsage)
	}
	if p.n != len(b.ops) {
		return CommitTicket{}, fmt.Errorf("%w: batch modified since preparation (%d ops prepared, %d staged)", ErrUsage, p.n, len(b.ops))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return CommitTicket{}, ErrClosed
	}
	if err := s.commitPreparedLocked(b, p.prep, durable); err != nil {
		return CommitTicket{}, err
	}
	var ticket CommitTicket
	if durable {
		// The record is in the log: any round syncing from here on covers
		// it, so the commit no longer counts as inbound.
		s.gc.addInbound(-1)
		ticket = CommitTicket{s: s, seq: s.commitSeq}
	}
	if err := s.maybeMaintain(); err != nil {
		return ticket, fmt.Errorf("%w: %w", ErrMaintenance, err)
	}
	return ticket, nil
}

// AwaitDurable blocks until the ticket's commit record is hardened, joining
// (or leading) a harden round. It returns immediately for the zero ticket.
// A non-nil error matches ErrNotDurable: the commit remains applied but was
// not acknowledged durable.
func (s *Store) AwaitDurable(t CommitTicket) error {
	if t.s == nil {
		return nil
	}
	if t.s != s {
		return fmt.Errorf("%w: ticket does not belong to this store", ErrUsage)
	}
	return s.awaitHarden(t.seq)
}

// appendCommitRecordLocked writes the commit record for the current
// in-memory state. Durable records are stamped sealedCtr+1 — one past the
// newest sealed round's stamp, the counter value the round that covers them
// must reach before acknowledging them — and leave a harden owed; the
// caller decides who pays it (a round for user commits, hardenLocked for a
// checkpoint). It returns the record's length.
func (s *Store) appendCommitRecordLocked(durable bool) (int64, error) {
	seq := s.commitSeq + 1
	ctr := s.stampCtr
	if durable && s.cfg.UseCounter {
		ctr = s.sealedCtr + 1
	}
	rootHash := s.lm.rootHash()
	signed := commitSignedPortion(seq, durable, ctr, rootHash)
	rec := encodeRecord(recCommit, commitRecordBody(signed, s.suite.MAC(signed)))
	if _, err := s.segs.append(rec, s.cfg.SegmentSize); err != nil {
		return 0, err
	}
	s.commitSeq = seq
	if durable {
		s.stampCtr, s.durableSeq = ctr, seq
	}
	return int64(len(rec)), nil
}

// adjustLive updates a segment's live-byte count.
func (s *Store) adjustLive(loc Location, delta int64) {
	if seg, ok := s.segs.segs[loc.Seg]; ok {
		seg.live += delta
		if seg.live < 0 {
			seg.live = 0
		}
	}
}

// maybeMaintain runs post-commit maintenance: checkpoint when the residual
// log is long, clean when utilization exceeds the bound. Maintenance
// commits do not recursively trigger maintenance.
func (s *Store) maybeMaintain() error {
	if s.maintenance {
		return nil
	}
	s.maintenance = true
	defer func() { s.maintenance = false }()
	if !s.cfg.DisableAutoCheckpoint && s.residualBytes >= s.cfg.CheckpointBytes {
		if err := s.checkpointLocked(); err != nil {
			return err
		}
	}
	if !s.cfg.DisableAutoClean {
		if err := s.cleanLocked(s.cfg.CleanStepBytes, false); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint forces a checkpoint of the location map (normally deferred to
// idle periods or triggered by residual log growth, §3.2.1).
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.checkpointLocked()
}

// Clean runs cleaner passes until either utilization is within the
// configured bound or no progress can be made. It is the "idle time"
// cleaning entry point (§3.2.1).
func (s *Store) Clean() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.cleanLocked(1<<62, true)
}

// Stats returns operational counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	disk := s.segs.totalSize()
	live := s.segs.totalLive()
	st := Stats{
		Segments:     len(s.segs.segs),
		DiskBytes:    disk,
		LiveBytes:    live,
		Chunks:       s.chunkCount,
		CommitSeq:    s.commitSeq,
		Cleanings:    s.statCleanings,
		CleanedBytes: s.statCleanedBytes,
		Checkpoints:  s.statCheckpoints,
		CacheBytes:   s.cfg.CachePool.Used(),
	}
	st.ReadSlowPaths = s.readSlow.Load()
	st.CoalescedReads = s.coalescedReads.Load()
	st.CoalescedChunks = s.coalescedChunks.Load()
	st.PrefetchedChunks = s.prefetchedChunks.Load()
	if disk > 0 {
		st.Utilization = float64(live) / float64(disk)
	}
	return st
}

// Verify re-reads and validates every chunk and map node against the Merkle
// tree, returning ErrTampered on any mismatch. It is the full-database
// audit used by tools and tests.
func (s *Store) Verify() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	count := int64(0)
	err := s.lm.forEachEntry(s.lm.root, func(cid ChunkID, e entry) error {
		if _, err := s.readChunkAtLocked(cid, e); err != nil {
			return err
		}
		count++
		return nil
	})
	if err != nil {
		return err
	}
	if count != s.chunkCount {
		return fmt.Errorf("%w: map holds %d chunks, expected %d", ErrTampered, count, s.chunkCount)
	}
	return nil
}
