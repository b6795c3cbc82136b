package chunkstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"tdb/internal/platform"
)

// Segment files are named "seg-N" (decimal, monotonically increasing). Each
// begins with a 24-byte header: magic, the segment number, and the size of
// the previous segment when this one was created. Records follow back to
// back.
const (
	segMagic      = uint64(0x5444425345470001) // "TDBSEG\x00\x01"
	segHeaderSize = 24
)

func segmentName(n uint64) string { return "seg-" + strconv.FormatUint(n, 10) }

// parseSegmentName extracts the segment number from a file name, reporting
// ok=false for non-segment files.
func parseSegmentName(name string) (uint64, bool) {
	rest, found := strings.CutPrefix(name, "seg-")
	if !found {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// segment is the in-memory state of one log segment.
type segment struct {
	num  uint64
	file platform.File
	// size is the number of bytes appended (header included).
	size int64
	// live is the number of bytes of current chunk/map-node versions.
	live int64
	// prev is the previous segment's size when this one was created: the
	// log reads on into this segment only from there (scanLog).
	prev int64
	// nodes marks a node segment, which holds map-node records and never a
	// chunk record; checkpoints write and free it (checkpointLocked).
	nodes bool
	// sealed segments accept no more appends.
	sealed bool
	// synced tracks whether all appended bytes are durable.
	synced bool
	// gen counts content mutations (appends, rewind truncations). An
	// off-mutex group-commit sync snapshots it to decide, afterwards,
	// whether its fsync covered everything the segment now holds.
	gen uint64
	// syncing marks segments an off-mutex sync currently holds file
	// handles to; free defers closing such handles via doomed.
	syncing bool
	doomed  bool
	// readers counts reads currently holding the file handle (pinned by a
	// read's plan act, released by its finish act; see read.go). free defers closing a pinned segment's handle via doomed;
	// the last unpinner closes it. Atomic because pins and unpins happen
	// under the shared lock, concurrently with each other.
	readers atomic.Int32
}

// segmentSet manages all segment files of one store. All raw segment I/O
// funnels through the retrying helpers below (readAt, writeAt, syncFile,
// truncate): transient device errors are absorbed within the retry policy's
// bound, and failures surface as *IOError with segment and offset context.
//
// Appends land in an in-memory write-behind tail buffer instead of issuing
// one WriteAt syscall per record; the buffer is flushed as a single WriteAt
// at well-defined flush points (harden round snapshot, checkpoint and Close
// harden, cap overflow, segment seal, cleaning, scrub, snapshot, close).
// Records of half the cap or more write through directly (see append).
// Durability is unaffected: every fsync flushes first, and the unflushed
// bytes of a crash are exactly the nondurable suffix recovery already
// discards. Reads transparently serve the buffered
// suffix from memory, so the location map, cleaner, and scrub never observe
// a torn view. seg.size is always the LOGICAL size (flushed + buffered);
// only wbOff tracks what has physically reached the file.
type segmentSet struct {
	store platform.UntrustedStore
	segs  map[uint64]*segment
	// tail is the open segment accepting appends.
	tail *segment
	// next is the number the next created segment will get.
	next uint64
	// retry bounds transient-error retries on raw segment I/O.
	retry RetryPolicy

	// wbSeg is the segment owning the buffered suffix (the tail at the time
	// of the first buffered append). nil until the first buffered append.
	wbSeg *segment
	// wbOff is wbSeg's flushed (physical) size: the buffer holds the bytes
	// [wbOff, wbSeg.size). Invariant whenever wb is empty: wbOff == wbSeg.size,
	// unless wbSeg was sealed and the tail moved on.
	wbOff int64
	// wb is the buffered suffix of wbSeg.
	wb []byte
	// wbDirty, when nonzero, is the physical high-water mark a FAILED flush
	// may have reached: a partially applied WriteAt can leave stale record
	// bytes on disk in [wbOff, wbDirty) that the buffer no longer mirrors
	// after a rewind. A rewind below wbDirty must therefore truncate
	// physically — otherwise a crash could expose a stale suffix that
	// recovery's tail scan might misparse as live records.
	wbDirty int64
}

// writeBehindCap is the write-behind tail buffer's capacity: reaching it
// forces a flush.
const writeBehindCap = 256 << 10

func newSegmentSet(store platform.UntrustedStore, retry RetryPolicy) *segmentSet {
	retry.fillDefaults()
	return &segmentSet{store: store, segs: make(map[uint64]*segment), next: 1, retry: retry}
}

// flushLocked writes the buffered tail suffix to its segment file as one
// WriteAt. On failure the buffer is left intact (wbOff does not advance), so
// the flush may be retried; rewriting the same bytes at the same offset is
// idempotent. Caller holds the store mutex (or runs single-threaded during
// Open/Close), so no append can race the buffer swap.
func (ss *segmentSet) flushLocked() error {
	if len(ss.wb) == 0 {
		return nil
	}
	if err := ss.writeAt(ss.wbSeg, ss.wb, ss.wbOff); err != nil {
		if end := ss.wbOff + int64(len(ss.wb)); end > ss.wbDirty {
			ss.wbDirty = end
		}
		return err
	}
	ss.wbOff += int64(len(ss.wb))
	ss.wb = ss.wb[:0]
	if ss.wbOff >= ss.wbDirty {
		// Every byte a failed attempt may have scribbled is now overwritten
		// with live log content.
		ss.wbDirty = 0
	}
	return nil
}

// readAt reads into p at off of seg's logical content, retrying transient
// errors and serving any suffix still in the write-behind buffer from
// memory. A short read (io.EOF) leaves the unread tail of p zeroed, matching
// the previous direct-ReadAt behavior.
func (ss *segmentSet) readAt(seg *segment, p []byte, off int64) error {
	if seg == ss.wbSeg && len(ss.wb) > 0 && off+int64(len(p)) > ss.wbOff {
		var fromFile int64
		if off < ss.wbOff {
			fromFile = ss.wbOff - off
			if err := ss.fileReadAt(seg, p[:fromFile], off); err != nil {
				return err
			}
		}
		if start := off + fromFile - ss.wbOff; start < int64(len(ss.wb)) {
			copy(p[fromFile:], ss.wb[start:])
		}
		return nil
	}
	return ss.fileReadAt(seg, p, off)
}

// fileReadAt is the raw retrying file read under readAt's buffer
// read-through.
func (ss *segmentSet) fileReadAt(seg *segment, p []byte, off int64) error {
	attempts, err := ss.retry.run(func() error {
		if _, err := seg.file.ReadAt(p, off); err != nil && err != io.EOF {
			return err
		}
		return nil
	})
	if err != nil {
		return ioErr("read", segmentName(seg.num), seg.num, off, attempts, err)
	}
	return nil
}

// writeAt writes p at off of seg's file, retrying transient errors.
// Rewriting the same bytes at the same offset is idempotent, so a retried
// write that partially applied before failing is safe.
func (ss *segmentSet) writeAt(seg *segment, p []byte, off int64) error {
	attempts, err := ss.retry.run(func() error {
		_, err := seg.file.WriteAt(p, off)
		return err
	})
	if err != nil {
		return ioErr("write", segmentName(seg.num), seg.num, off, attempts, err)
	}
	return nil
}

// syncFile syncs seg's file, retrying transient errors.
func (ss *segmentSet) syncFile(seg *segment) error {
	attempts, err := ss.retry.run(seg.file.Sync)
	if err != nil {
		return ioErr("sync", segmentName(seg.num), seg.num, -1, attempts, err)
	}
	return nil
}

// truncate truncates seg's file, retrying transient errors.
func (ss *segmentSet) truncate(seg *segment, size int64) error {
	attempts, err := ss.retry.run(func() error {
		return seg.file.Truncate(size)
	})
	if err != nil {
		return ioErr("truncate", segmentName(seg.num), seg.num, size, attempts, err)
	}
	return nil
}

// create opens a new tail segment, a node segment if nodes is set. Sealing
// is a flush point: the old tail's buffered suffix must be on disk before
// the segment stops accepting appends, so sealed segments never hold
// buffered bytes.
func (ss *segmentSet) create(nodes bool) (*segment, error) {
	if err := ss.flushLocked(); err != nil {
		return nil, err
	}
	num := ss.next
	var f platform.File
	attempts, err := ss.retry.run(func() error {
		var cerr error
		f, cerr = ss.store.Create(segmentName(num))
		if errors.Is(cerr, platform.ErrExists) {
			// Every loaded segment is numbered below next, so a file of this
			// number is referenced by nothing: it is the leftover of a create
			// that failed after the file appeared. Replace it.
			if cerr = ss.store.Remove(segmentName(num)); cerr == nil {
				f, cerr = ss.store.Create(segmentName(num))
			}
		}
		return cerr
	})
	if err != nil {
		return nil, ioErr("create", segmentName(num), num, -1, attempts, err)
	}
	var hdr [segHeaderSize]byte
	binary.BigEndian.PutUint64(hdr[0:8], segMagic)
	binary.BigEndian.PutUint64(hdr[8:16], num)
	seg := &segment{num: num, file: f, size: segHeaderSize, nodes: nodes}
	if ss.tail != nil {
		seg.prev = ss.tail.size
	}
	binary.BigEndian.PutUint64(hdr[16:24], uint64(seg.prev))
	if err := ss.writeAt(seg, hdr[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	// The number is consumed only now: a failed create must not leave a gap,
	// recovery's log scan expects dense numbering.
	ss.next = num + 1
	ss.segs[num] = seg
	if ss.tail != nil {
		ss.tail.sealed = true
	}
	ss.tail = seg
	return seg, nil
}

// open loads an existing segment file during recovery. Its live count starts
// at zero; the checkpoint's segment table and replay fill it in.
func (ss *segmentSet) open(num uint64) (*segment, error) {
	if seg, ok := ss.segs[num]; ok {
		return seg, nil
	}
	var f platform.File
	attempts, err := ss.retry.run(func() error {
		var oerr error
		f, oerr = ss.store.Open(segmentName(num))
		return oerr
	})
	if err != nil {
		return nil, ioErr("open", segmentName(num), num, -1, attempts, err)
	}
	var size int64
	attempts, err = ss.retry.run(func() error {
		var serr error
		size, serr = f.Size()
		return serr
	})
	if err != nil {
		return nil, ioErr("size", segmentName(num), num, -1, attempts, err)
	}
	seg := &segment{num: num, file: f, size: size, sealed: true, synced: true}
	if size >= segHeaderSize {
		var hdr [segHeaderSize]byte
		if err := ss.readAt(seg, hdr[:], 0); err != nil {
			return nil, err
		}
		// A header not this segment's (a crash kept a later write and lost
		// the header's, or an attacker wrote it) leaves prev 0, so the log
		// never reads on into the segment; nothing else trusts the header.
		if binary.BigEndian.Uint64(hdr[0:8]) == segMagic && binary.BigEndian.Uint64(hdr[8:16]) == num {
			seg.prev = int64(binary.BigEndian.Uint64(hdr[16:24]))
		}
	}
	ss.segs[num] = seg
	if num >= ss.next {
		ss.next = num + 1
	}
	return seg, nil
}

// free removes a segment file whose live data has been fully evacuated.
func (ss *segmentSet) free(num uint64) error {
	seg, ok := ss.segs[num]
	if !ok {
		return fmt.Errorf("%w: freeing unknown segment %d", ErrTampered, num)
	}
	if seg == ss.tail {
		return fmt.Errorf("%w: cannot free tail segment %d", ErrTampered, num)
	}
	if seg == ss.wbSeg {
		// Discard any buffered suffix with its segment (rewind freeing the
		// segments a failed commit created).
		ss.wb = ss.wb[:0]
		ss.wbSeg = nil
		ss.wbOff = 0
		ss.wbDirty = 0
	}
	if seg.syncing || seg.readers.Load() > 0 {
		// An off-mutex group-commit sync or a pinned cache-miss read holds
		// this file handle; closing it now would fail that fsync or read.
		// Unlink the file and leave the handle to finishSyncLocked or the
		// last unpinning reader. No new pin can form: free runs under the
		// exclusive store lock and removes the segment from the set, and
		// a read's plan act only pins segments it finds in the set.
		seg.doomed = true
	} else if err := seg.file.Close(); err != nil {
		return err
	}
	delete(ss.segs, num)
	attempts, err := ss.retry.run(func() error {
		return ss.store.Remove(segmentName(num))
	})
	if err != nil {
		return ioErr("remove", segmentName(num), num, -1, attempts, err)
	}
	return nil
}

// numbers returns all loaded segment numbers in ascending order.
func (ss *segmentSet) numbers() []uint64 { return slices.Sorted(maps.Keys(ss.segs)) }

// totalSize returns the sum of all segment sizes.
func (ss *segmentSet) totalSize() int64 {
	var t int64
	for _, s := range ss.segs {
		t += s.size
	}
	return t
}

// totalLive returns the sum of all live bytes.
func (ss *segmentSet) totalLive() int64 {
	var t int64
	for _, s := range ss.segs {
		t += s.live
	}
	return t
}

// tailMark remembers the log's append position so a failed multi-record
// append (an aborted commit) can be physically discarded later. The bytes
// between a mark and the current tail are, by construction, referenced by
// nothing: the staged commit path only publishes locations into the
// location map after every append of the batch has succeeded.
type tailMark struct {
	// seg and size identify the tail segment and its length at mark time.
	seg  uint64
	size int64
	// next preserves the segment-number counter so rewinding reuses the
	// numbers of discarded segments (recovery expects dense numbering).
	next uint64
}

// mark captures the current append position.
func (ss *segmentSet) mark() tailMark {
	if ss.tail == nil {
		return tailMark{}
	}
	return tailMark{seg: ss.tail.num, size: ss.tail.size, next: ss.next}
}

// rewind discards everything appended after the mark: segments created
// since are freed and the then-tail is truncated back to its marked length,
// becoming the tail again. Rewinding is idempotent — on failure the caller
// may retry with the same mark once the underlying store recovers.
func (ss *segmentSet) rewind(m tailMark) error {
	target, ok := ss.segs[m.seg]
	if !ok {
		return fmt.Errorf("%w: rewind target segment %d missing", ErrTampered, m.seg)
	}
	ss.tail = target
	for _, num := range ss.numbers() {
		if num > m.seg {
			if err := ss.free(num); err != nil {
				return err
			}
		}
	}
	if target == ss.wbSeg && len(ss.wb) > 0 && target.size > m.size && m.size >= ss.wbOff {
		// The discarded suffix lies entirely in the write-behind buffer:
		// truncate in memory, no syscall — unless a failed flush may have
		// scribbled stale record bytes on disk past the mark, in [wbOff,
		// wbDirty). Those are no longer mirrored by the trimmed buffer, so
		// the file must be cut back to its last known-good physical size
		// (wbOff, never the mark — bytes in [wbOff, m.size) live only in
		// the buffer and a truncate to m.size would zero-fill them on
		// disk). Truncate before trimming so a failed truncate mutates
		// nothing and rewind stays retryable with the same mark.
		if ss.wbDirty > m.size {
			if err := ss.truncate(target, ss.wbOff); err != nil {
				return fmt.Errorf("chunkstore: truncating aborted commit tail: %w", err)
			}
			ss.wbDirty = 0
		}
		ss.wb = ss.wb[:m.size-ss.wbOff]
		target.size = m.size
		target.synced = false
		target.gen++
	}
	if target.size > m.size {
		if target == ss.wbSeg {
			// The mark lies below the buffered region: the whole buffer is
			// part of the discard, along with the flushed bytes above the
			// mark. Any failed-flush scribbles sit at or beyond wbOff ≥
			// m.size and fall to the truncate below.
			ss.wb = ss.wb[:0]
		}
		if err := ss.truncate(target, m.size); err != nil {
			return fmt.Errorf("chunkstore: truncating aborted commit tail: %w", err)
		}
		target.size = m.size
		target.synced = false
		target.gen++
		if target == ss.wbSeg {
			ss.wbOff = m.size
			ss.wbDirty = 0
		}
	}
	target.sealed = false
	ss.next = m.next
	return nil
}

// append writes a raw encoded record to the tail (sealing and creating
// segments as needed when the tail is full) and returns its location. A
// chunk record never joins a node segment, nor a map-node record a chunk
// segment: either opens a segment of its own kind. Records that are never
// live (dealloc, checkpoint, commit, seal) join whatever tail is open.
func (ss *segmentSet) append(rec []byte, segmentSize int) (Location, error) {
	typ := rec[0]
	if ss.tail == nil || (typ == recWrite || typ == recMapNode) && ss.tail.nodes != (typ == recMapNode) {
		if _, err := ss.create(typ == recMapNode); err != nil {
			return Location{}, err
		}
	}
	// Seal the tail if the record does not fit; oversized records get a
	// fresh segment to themselves.
	if ss.tail.size > segHeaderSize && ss.tail.size+int64(len(rec)) > int64(segmentSize) {
		if _, err := ss.create(ss.tail.nodes); err != nil {
			return Location{}, err
		}
	}
	tail := ss.tail
	loc := Location{Seg: tail.num, Off: uint32(tail.size), Len: uint32(len(rec))}
	if len(rec)*2 >= writeBehindCap {
		// Bulk records write through directly, skipping the buffer memcpy:
		// a record at or above half the cap would immediately force a flush
		// anyway, so buffering it buys nothing and costs a copy. Flush any
		// buffered prefix first so file order matches log order.
		if err := ss.flushLocked(); err != nil {
			return Location{}, err
		}
		if ss.wbSeg != tail {
			ss.wbSeg = tail
			ss.wbOff = tail.size
			ss.wbDirty = 0
		}
		if err := ss.writeAt(tail, rec, tail.size); err != nil {
			// Mirror the failed-flush protocol: the write may have partially
			// applied, so a later rewind below this high-water mark must
			// truncate physically rather than trim in memory.
			if end := tail.size + int64(len(rec)); end > ss.wbDirty {
				ss.wbDirty = end
			}
			return Location{}, err
		}
		tail.size += int64(len(rec))
		ss.wbOff = tail.size
		if ss.wbOff >= ss.wbDirty {
			ss.wbDirty = 0
		}
		tail.synced = false
		tail.gen++
		return loc, nil
	}
	if ss.wbSeg != tail {
		// Adopt the current tail. The buffer is empty here: create()
		// flushes before sealing, and free/rewind drop or flush it.
		ss.wbSeg = tail
		ss.wbOff = tail.size
	}
	ss.wb = append(ss.wb, rec...)
	tail.size += int64(len(rec))
	tail.synced = false
	tail.gen++
	if len(ss.wb) >= writeBehindCap {
		// Cap overflow. On failure the record stays buffered and logically
		// appended; the caller's rewind trims it from memory.
		if err := ss.flushLocked(); err != nil {
			return Location{}, err
		}
	}
	return loc, nil
}

// readRecord reads and CRC-checks the record at loc, returning its type and
// body. CRC failure is reported as tampering: outside of crash recovery's
// tail scan, every stored record is expected to be intact.
func (ss *segmentSet) readRecord(loc Location) (byte, []byte, error) {
	seg, ok := ss.segs[loc.Seg]
	if !ok {
		return 0, nil, fmt.Errorf("%w: reference to missing segment %d", ErrTampered, loc.Seg)
	}
	if int64(loc.Off)+int64(loc.Len) > seg.size || loc.Len < recordHeaderSize {
		return 0, nil, fmt.Errorf("%w: record %v out of segment bounds", ErrTampered, loc)
	}
	buf := make([]byte, loc.Len)
	if err := ss.readAt(seg, buf, int64(loc.Off)); err != nil {
		return 0, nil, err
	}
	return parseRecordBytes(loc, buf)
}

// parseRecordBytes decodes and CRC-checks a raw record image read from loc.
// Pure computation over the supplied bytes, shared by readRecord and the
// off-mutex read path (which fetches the image itself while holding no
// lock).
func parseRecordBytes(loc Location, buf []byte) (byte, []byte, error) {
	typ, bodyLen, err := decodeRecordHeader(buf)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if int(bodyLen)+recordHeaderSize != len(buf) {
		return 0, nil, fmt.Errorf("%w: record %v length mismatch", ErrTampered, loc)
	}
	if !checkRecordCRC(buf) {
		return 0, nil, fmt.Errorf("%w: record %v CRC mismatch", ErrTampered, loc)
	}
	return typ, buf[recordHeaderSize:], nil
}

// syncDirty syncs every segment with unsynced appends. Buffered bytes are
// flushed first — an fsync only hardens what has reached the file.
func (ss *segmentSet) syncDirty() error {
	if err := ss.flushLocked(); err != nil {
		return err
	}
	// Sync in segment order for determinism.
	for _, n := range ss.numbers() {
		seg := ss.segs[n]
		if !seg.synced {
			if err := ss.syncFile(seg); err != nil {
				return err
			}
			seg.synced = true
		}
	}
	return nil
}

// syncTask snapshots one dirty segment for an off-mutex group-commit sync.
type syncTask struct {
	seg *segment
	gen uint64
}

// syncSnapshotLocked flushes the write-behind buffer — the off-mutex fsync
// can only harden bytes that have reached the file — then collects every
// unsynced segment, marking it in-flight so the cleaner defers closing its
// file handle. Caller holds the store mutex.
func (ss *segmentSet) syncSnapshotLocked() ([]syncTask, error) {
	if err := ss.flushLocked(); err != nil {
		return nil, err
	}
	var tasks []syncTask
	for _, n := range ss.numbers() {
		seg := ss.segs[n]
		if !seg.synced {
			seg.syncing = true
			tasks = append(tasks, syncTask{seg: seg, gen: seg.gen})
		}
	}
	return tasks, nil
}

// syncTasks fsyncs a snapshot outside the store mutex. Concurrent appends
// to the same files are safe — an fsync covers at least the snapshotted
// bytes — and finishSyncLocked only marks a segment clean when nothing
// mutated it meanwhile.
func (ss *segmentSet) syncTasks(tasks []syncTask) error {
	for _, task := range tasks {
		if err := ss.syncFile(task.seg); err != nil {
			return err
		}
	}
	return nil
}

// finishSyncLocked publishes the outcome of an off-mutex sync: with ok,
// segments untouched since the snapshot become clean; segments the cleaner
// doomed while the sync was in flight get their handles closed. Caller
// holds the store mutex.
func (ss *segmentSet) finishSyncLocked(tasks []syncTask, ok bool) {
	for _, task := range tasks {
		seg := task.seg
		seg.syncing = false
		if seg.doomed {
			if seg.readers.Load() == 0 {
				seg.doomed = false
				seg.file.Close()
			}
			// Otherwise the last unpinning reader closes the handle (see
			// unpinReaderLocked); it observes syncing == false from here on.
			continue
		}
		if ok && seg.gen == task.gen {
			seg.synced = true
		}
	}
}

// unpinReaderLocked drops an off-mutex reader's pin on seg, closing the file
// handle when the cleaner doomed the segment mid-read and this was the last
// pin. Caller holds the store mutex, shared mode sufficing: a doomed segment
// has been removed from the set (no new pins can form), so only the single
// reader whose decrement reaches zero touches the doomed flag and handle,
// and every exclusive-lock mutation of doomed/syncing is ordered against
// this read-locked section by the mutex itself.
func (ss *segmentSet) unpinReaderLocked(seg *segment) {
	if seg.readers.Add(-1) == 0 && seg.doomed && !seg.syncing {
		seg.doomed = false
		seg.file.Close()
	}
}

// closeAll closes every file handle.
//
//tdblint:serial Close tears down handles under the store mutex so no commit can race the shutdown
func (ss *segmentSet) closeAll() error {
	var first error
	for _, seg := range ss.segs {
		if err := seg.file.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
