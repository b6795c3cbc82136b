// Package chunkstore implements TDB's lowest and most distinctive layer: a
// log-structured store of variable-sized byte sequences ("chunks") on
// untrusted storage (paper §3).
//
// The chunk store guarantees that chunks cannot be read by unauthorized
// programs (every chunk is encrypted with a key derived from the device
// secret) and that tampering — including replay of a stale database copy —
// is detected. Tamper detection hashes the entire database with a Merkle
// tree [27] that is embedded in the chunk location map, so maintaining the
// map costs no extra hashing; the signed tree root and the value of a
// one-way counter anchor the current state.
//
// Unlike conventional database stores, the log is the primary and only
// storage: chunks never exist outside the log (§3.2.1). Commits append
// chunk versions to the log tail; a hierarchical location map (a tree of
// chunks, itself stored in the log at checkpoints) tracks current versions;
// a cleaner reclaims segments dominated by obsolete versions, bounding
// database size at a configurable utilization; recovery replays the
// residual log written since the last checkpoint.
package chunkstore

import (
	"errors"
	"fmt"
)

// ChunkID names a chunk. Ids are allocated densely starting at 1; id 0 is
// never allocated.
type ChunkID uint64

// Location places a stored chunk version in the log.
type Location struct {
	// Seg is the segment number (1-based; 0 means "no location").
	Seg uint64
	// Off is the byte offset of the record header within the segment file.
	Off uint32
	// Len is the total record length in bytes, header included.
	Len uint32
}

// IsZero reports whether the location is unset.
func (l Location) IsZero() bool { return l.Seg == 0 }

func (l Location) String() string {
	return fmt.Sprintf("seg %d @%d +%d", l.Seg, l.Off, l.Len)
}

// Errors reported by the chunk store.
var (
	// ErrTampered is the tamper-detection signal (paper §3): validation of a
	// chunk, the location map, the anchor, or the one-way counter failed.
	ErrTampered = errors.New("chunkstore: tamper detected")
	// ErrNotAllocated is returned for operations on chunk ids that are not
	// allocated.
	ErrNotAllocated = errors.New("chunkstore: chunk id not allocated")
	// ErrNotWritten is returned when reading a chunk id that was allocated
	// but never written.
	ErrNotWritten = errors.New("chunkstore: chunk not written")
	// ErrClosed is returned for operations on a closed store.
	ErrClosed = errors.New("chunkstore: store is closed")
	// ErrSnapshotClosed is returned for operations on a closed snapshot.
	ErrSnapshotClosed = errors.New("chunkstore: snapshot is closed")
	// ErrBatchTooLarge is returned by Commit for batches with more than
	// MaxBatchOps operations. The limit exists because the per-operation IV
	// sequence space within one commit is 20 bits wide; accepting a larger
	// batch would silently reuse IVs across different plaintexts.
	ErrBatchTooLarge = errors.New("chunkstore: batch exceeds maximum operation count")
	// ErrIO marks environmental storage failures: an I/O operation against
	// the untrusted store failed (past the configured retry bound, for
	// transient faults). Every ErrIO is a *IOError carrying the operation,
	// segment/file, and offset, so fault reports are actionable. ErrIO is
	// retryable at the caller's discretion; it is distinct from ErrTampered,
	// which signals an integrity violation and is never retried.
	ErrIO = errors.New("chunkstore: storage I/O failure")
	// ErrDegraded is returned when reading a chunk that is individually
	// damaged (bit rot, or quarantined by a scrub): the rest of the
	// database remains readable, and backupstore.Repair can heal the chunk
	// from a backup chain. The error also matches ErrTampered, since
	// per-chunk corruption is an integrity failure.
	ErrDegraded = errors.New("chunkstore: chunk degraded")
	// ErrUsage marks caller mistakes — invalid configuration, misuse of the
	// API (releasing a written chunk, restoring over chunk id 0), or opening
	// a store with the wrong crypto suite. Usage errors are deterministic:
	// retrying cannot help, and nothing on disk is suspect.
	ErrUsage = errors.New("chunkstore: invalid use")
	// ErrMaintenance wraps failures of post-commit maintenance (automatic
	// checkpointing or cleaning). When Commit returns an error matching
	// ErrMaintenance the commit itself HAS been applied — durably, for a
	// durable commit — and only the background maintenance work failed;
	// callers must not treat the batch as lost.
	ErrMaintenance = errors.New("chunkstore: post-commit maintenance failed")
	// ErrNotDurable wraps the failure of a durable commit's harden (log sync
	// or one-way counter advance). The commit HAS been applied and is
	// visible, but was not acknowledged durable: it stands exactly like a
	// §3.2.2 nondurable commit — hardened by the next successful durable
	// commit, checkpoint or Close, lost by a crash before then. A Commit
	// error matching neither this nor ErrMaintenance means the batch left no
	// trace in the store (see Store.Commit).
	ErrNotDurable = errors.New("chunkstore: commit applied but not durable")
)

// MaxBatchOps is the maximum number of operations in one Batch. Each
// operation is assigned a 20-bit slot in the commit's IV sequence space
// (see Commit); batches beyond this bound are rejected with
// ErrBatchTooLarge rather than wrapping around and reusing IVs.
const MaxBatchOps = 1 << 20

// Stats reports operational counters and sizes of a store.
type Stats struct {
	// Segments is the number of live segment files.
	Segments int
	// DiskBytes is the total size of all segment files.
	DiskBytes int64
	// LiveBytes is the number of bytes occupied by current chunk versions
	// (including the stored copies of location map nodes).
	LiveBytes int64
	// Utilization is LiveBytes/DiskBytes (0 when empty).
	Utilization float64
	// Chunks is the number of allocated-and-written chunks.
	Chunks int64
	// CommitSeq is the sequence number of the most recent commit.
	CommitSeq uint64
	// Cleanings counts cleaner passes; CleanedBytes counts bytes of live
	// data the cleaner copied forward.
	Cleanings    int64
	CleanedBytes int64
	// Checkpoints counts checkpoint operations.
	Checkpoints int64
	// CacheBytes is the memory accounted to cached map nodes.
	CacheBytes int64
	// ReadCacheBytes, ReadCacheHits, ReadCacheMisses and ReadCacheShards
	// described the validated-plaintext read cache, which is gone: decoded
	// objects are cached in the object store's decode table. They are
	// always zero and stay only for clients compiled against them.
	ReadCacheBytes  int64
	ReadCacheHits   int64
	ReadCacheMisses int64
	ReadCacheShards int
	// ReadSlowPaths counts reads that fell back to the
	// exclusive-lock read path instead of completing off-mutex (map node
	// not resident, or repeated relocation races mid-read).
	ReadSlowPaths int64
	// CoalescedReads counts batch segment reads that merged two or more
	// physically adjacent records into a single ReadAt; CoalescedChunks is
	// the number of records those merged reads delivered (see ReadBatch).
	CoalescedReads  int64
	CoalescedChunks int64
	// PrefetchedChunks counts chunks the batch read path fetched and
	// validated on behalf of prefetch hints. PrefetchHits and PrefetchWasted
	// counted read-cache consumption of those chunks; like the ReadCache
	// fields they are always zero.
	PrefetchedChunks int64
	PrefetchHits     int64
	PrefetchWasted   int64
}
