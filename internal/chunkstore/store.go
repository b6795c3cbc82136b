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
// payload encryption and digesting execute outside the state mutex, on the
// committing goroutine, and only the buffered log appends and the in-memory
// updates serialize under the mutex (see commit_pipeline.go). Reads snapshot
// the chunk's map entry under a short shared-lock section and run the
// segment I/O, digest validation, and decryption with no lock held (see
// read.go and DESIGN.md §7.7).
// Decoded objects are cached a layer up, in the object store's decode
// table.
type Store struct {
	mu  sync.RWMutex
	cfg Config

	suite sec.Suite
	segs  *segmentSet
	lm    *locMap
	alloc *allocator

	// readSlow counts the map-node fault-ins reads make under the exclusive
	// lock. Tests assert it stays zero for warm-map workloads.
	readSlow atomic.Int64
	// coalescedReads counts batch segment reads that merged two or more
	// physically adjacent records into one ReadAt; coalescedChunks counts the
	// records those merged reads delivered. prefetchedChunks counts chunks
	// the batch read path fetched and validated on behalf of a prefetch hint
	// (see read.go).
	coalescedReads   atomic.Int64
	coalescedChunks  atomic.Int64
	prefetchedChunks atomic.Int64
	// arenas lends VisitBatch and the audits their plans and record
	// buffers (read.go).
	arenas arenaList
	// ivGen hands out IV-sequence generations (one per commit preparation,
	// and a few per checkpoint; the cleaner copies ciphertext verbatim and
	// takes none). It never repeats across the life of the database: the
	// superblock persists a reservation high-water mark (ivGenLimit) and
	// Open ratchets ivGen past it, so a seed used before a crash or restart
	// can never be handed out again under the same key.
	ivGen atomic.Uint64
	// ivGenLimit is the highest IV generation durably reserved in the
	// superblock. Generations at or below it may be consumed freely; going
	// past it first extends the reservation with a superblock write (see
	// nextIVGen). Mutated only under mu; read lock-free on the fast path.
	ivGenLimit atomic.Uint64
	// signedMark is the log tail just past the newest commit or seal
	// record. Records beyond it are unsigned: a cleaning cycle or
	// checkpoint that failed left them, and appendSealLocked signs them
	// before a seal may cover them.
	signedMark tailMark

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
	// round is the open round: the durable commit records stamped
	// sealedCtr+1 that no seal record covers yet (empty without a counter).
	// Sealing a stamp appends its seal record first (sealOpenRoundLocked).
	// Mutated only under mu.
	round roundChain
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
	// superSeq numbers the durable superblock writes for the ping-pong
	// slots (writeSuperblock).
	superSeq uint64
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
	// closed is atomic so Commit can reject work before running the (costly)
	// stage-1 crypto pipeline, without taking the state mutex. It is written
	// only under mu.
	closed atomic.Bool

	// missingLive holds, during recovery only, the live bytes the checkpoint
	// records for segments that are gone; replay must relocate all of them.
	missingLive map[uint64]int64

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
	if cfg.Counter != nil {
		v, err := cfg.Counter.Read()
		if err != nil {
			return nil, fmt.Errorf("chunkstore: reading one-way counter: %w", err)
		}
		s.counterVal.Store(v)
		s.stampCtr, s.sealedCtr = v, v
	}
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
		// A format leaves the counter at zero until its first superblock
		// slot is durable (checkpointLocked), so a counter past zero
		// proves a slot was: the superblock was taken away, and formatting
		// would roll the database back to empty.
		if v := s.counterVal.Load(); v != 0 {
			return nil, fmt.Errorf("%w: superblock is missing or blank, but the one-way counter reads %d (database rolled back to empty?)", ErrTampered, v)
		}
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
	// guarantees no IV seed is ever reused across restarts.
	s.ratchetIVGen(sb.ivGenReserved)
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
	if err := s.writeSuperblock(s.lastCkpt, newLimit); err != nil {
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
	if err := s.checkpointLocked(); err != nil {
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
	// Pay any harden still owed before shutting the segments down: the
	// pending records are already applied and visible, and the commits
	// awaiting them must be released before Close marks the store closed.
	var err error
	if s.hardenOwedLocked() {
		err = s.hardenLocked()
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
// — in a round shared with every durable commit appended before the round's
// snapshot; a lone commit is a round of one (see groupcommit.go).
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
	p, err := s.PrepareBatch(b)
	if err != nil {
		return err
	}
	ticket, err := s.CommitPrepared(b, p, durable)
	if err != nil && !errors.Is(err, ErrMaintenance) {
		return err
	}
	if werr := s.AwaitDurable(ticket); werr != nil {
		return werr
	}
	return err
}

// AnnounceDurable is a no-op that reports false. Rounds batch behind the
// in-flight sync with no window (groupcommit.go), so a commit being
// prepared has nothing to announce. It remains only for the repository
// benchmark's probe, which still calls it; nothing in this module does.
func (s *Store) AnnounceDurable(durable bool) bool { return false }

// RetractDurable is a no-op: no announcement is ever made (see
// AnnounceDurable). It remains for the same caller.
func (s *Store) RetractDurable() {}

// PreparedBatch holds commit stage-1 output: every write payload of one
// batch encrypted and digested, ready to append. It is bound to the batch
// contents at preparation time and to the store that prepared it.
type PreparedBatch struct {
	s    *Store
	prep []preparedOp
	n    int
}

// PrepareBatch runs commit stage 1 — encrypting and digesting the batch's
// write payloads on the calling goroutine — without taking the store
// mutex. The only store state it touches is the IV generation counter
// (lock-free on the fast path), so callers holding their own locks around
// CommitPrepared can run preparation outside them, and concurrent
// committers prepare in parallel.
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
	prep, err := prepareBatch(s.suite, b.ops, gen)
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
// flush, fault in, apply (commit_pipeline.go). Error semantics match Commit,
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
func (s *Store) appendCommitRecordLocked(durable bool) int64 {
	seq := s.commitSeq + 1
	ctr := s.stampCtr
	if durable && s.cfg.Counter != nil {
		ctr = s.sealedCtr + 1
	}
	rootHash := s.lm.rootHash()
	signed := commitSignedPortion(seq, durable, ctr, rootHash)
	mac := s.suite.MAC(signed)
	rec := encodeRecord(recCommit, commitRecordBody(signed, mac))
	s.appendLocked(rec)
	s.signedMark = s.segs.mark()
	s.commitSeq = seq
	if durable {
		s.stampCtr, s.durableSeq = ctr, seq
		if s.cfg.Counter != nil {
			s.round.add(s.suite, ctr, mac)
		}
	}
	return int64(len(rec))
}

// appendSealLocked appends the open round's seal record — its stamp, its
// durable commit-record count and the MAC over their chained MACs — and
// empties the open round. The caller seals the stamp (sealedCtr) with it,
// and syncs before the counter may reach the stamp: recovery reads a
// counter at a stamp whose round is unsealed or short as a log cut inside
// an acknowledged round (recovery.go). A seal is never appended behind
// unsigned records: recovery replays up to the seal and checks the root of
// the last commit record before it, so records that a failed cleaning
// cycle or checkpoint left after the round's last commit first get a
// nondurable commit record over the state they produced.
func (s *Store) appendSealLocked() {
	if s.round.count == 0 {
		return
	}
	if s.segs.mark() != s.signedMark {
		s.residualBytes += s.appendCommitRecordLocked(false)
	}
	rec := encodeRecord(recSeal, s.round.sealRecordBody(s.suite))
	s.appendLocked(rec)
	s.signedMark = s.segs.mark()
	s.residualBytes += int64(len(rec))
	s.round.count, s.round.chain = 0, nil
}

// appendLocked appends one record at the log tail. It touches no device
// and cannot fail (segmentSet.append).
func (s *Store) appendLocked(rec []byte) Location {
	return s.segs.append(rec, s.cfg.SegmentSize)
}

// adjustLive updates a segment's live-byte count, or during recovery that
// of a checkpointed segment that is gone (missingLive).
func (s *Store) adjustLive(loc Location, delta int64) {
	if seg, ok := s.segs.segs[loc.Seg]; ok {
		seg.live += delta
		if seg.live < 0 {
			seg.live = 0
		}
	} else if live, ok := s.missingLive[loc.Seg]; ok {
		s.missingLive[loc.Seg] = live + delta
	}
}

// maybeMaintain runs post-commit maintenance: checkpoint when the residual
// log is long, clean when utilization exceeds the bound. Its only caller is
// CommitPrepared, and neither checkpointLocked nor cleanLocked commits
// through it, so maintenance never recurses.
func (s *Store) maybeMaintain() error {
	if !s.cfg.DisableAutoCheckpoint && s.residualBytes >= s.cfg.CheckpointBytes {
		if err := s.checkpointLocked(); err != nil {
			return err
		}
	}
	if !s.cfg.DisableAutoClean {
		// A post-commit step copies at most one segment of live data,
		// bounding per-commit overhead (§3.2.1).
		if err := s.cleanLocked(int64(s.cfg.SegmentSize), false); err != nil {
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

// Stats returns operational counters. The shared lock suffices: every field
// it reads is written under the exclusive lock or is atomic, so a stats
// poller never stalls the off-mutex readers.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
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
		CacheBytes:   s.lm.used,
		CacheBudget:  s.cfg.CacheBytes,
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

// Verify re-reads, validates and decrypts every chunk and map node against
// the Merkle tree, returning ErrTampered on any mismatch. It is the
// full-database audit used by tools and tests. It walks a snapshot of its
// own (auditWalk), so commits proceed while it runs; it audits the state
// committed when it started.
func (s *Store) Verify() error {
	sn, err := s.TakeSnapshot()
	if err != nil {
		return err
	}
	defer sn.Close()
	count := int64(0)
	w := auditWalk{sn: sn}
	if err := w.run(func(ps []readPlan) error {
		count += int64(len(ps))
		return nil
	}); err != nil {
		return err
	}
	if count != sn.chunks {
		return fmt.Errorf("%w: map holds %d chunks, expected %d", ErrTampered, count, sn.chunks)
	}
	return nil
}
