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
	num uint64
	// file is nil until the first flush that reaches the segment creates it
	// (flushSegmentLocked).
	file platform.File
	// size is the number of bytes appended (header included).
	size int64
	// flushed is the number of bytes that have reached the file; buf holds
	// the rest, [flushed, size).
	flushed int64
	buf     []byte
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
	// gen counts appends. An off-mutex group-commit sync snapshots it to
	// decide, afterwards, whether its fsync covered everything the segment
	// now holds.
	gen uint64
	// refs counts the holders of the file handle: the segment set, from
	// create or open until free or closeAll, plus each read that pinned the
	// segment and each off-mutex sync task. Whoever releases the last
	// reference closes the file. A reference is only taken under the store
	// mutex while the set still holds its own, so the count never climbs
	// back from zero.
	refs atomic.Int32
}

// release drops one reference to seg's file handle, closing the file if it
// was the last.
func (seg *segment) release() error {
	if seg.refs.Add(-1) != 0 || seg.file == nil {
		return nil
	}
	return seg.file.Close()
}

// segmentSet manages all segment files of one store. A segment's file is
// never rewritten where it holds records, and a freed segment's handle
// stays open until its last reference is released (segment.refs), so a
// read that pinned a segment reads the bytes it planned even after the
// cleaner freed it. All raw segment I/O
// funnels through the retrying helpers below (readAt, writeAt, syncFile,
// truncate): transient device errors are absorbed within the retry policy's
// bound, and failures surface as *IOError with segment and offset context.
//
// Appends never touch the device: a record lands in its segment's buffer,
// and a roll to a new segment only puts the new segment's header in its
// buffer. The buffers reach the files at well-defined flush points (harden
// round snapshot, checkpoint and Close harden, a commit or maintenance step
// that finds the buffers over the cap, cleaning, snapshot, close), the
// first of which to reach a segment creates its file. Durability is
// unaffected: every fsync flushes first, and the unflushed bytes of a crash
// are exactly the nondurable suffix recovery already discards. Reads
// transparently serve a buffered suffix from memory, so the location map,
// cleaner, and scrub never observe a torn view. seg.size is always the
// LOGICAL size (flushed + buffered).
type segmentSet struct {
	store platform.UntrustedStore
	segs  map[uint64]*segment
	// tail is the open segment accepting appends.
	tail *segment
	// next is the number the next created segment will get.
	next uint64
	// retry bounds transient-error retries on raw segment I/O.
	retry RetryPolicy

	// unflushed lists, ascending, the segments holding buffered bytes, and
	// buffered counts those bytes. Only the tail and segments sealed since
	// the last flush are on it.
	unflushed []*segment
	buffered  int64
}

// writeBehindCap is the write-behind buffers' capacity: a commit or
// maintenance step that finds them at or above it flushes them first.
const writeBehindCap = 256 << 10

func newSegmentSet(store platform.UntrustedStore, retry RetryPolicy) *segmentSet {
	retry.fillDefaults()
	return &segmentSet{store: store, segs: make(map[uint64]*segment), next: 1, retry: retry}
}

// flushLocked writes every buffered byte to its segment file, segment by
// segment in ascending order, one WriteAt each. A failure leaves the failed
// segment's bytes and every later segment's buffered, so files are created
// in number order and a retry rewrites the same bytes at the same offsets,
// which is idempotent. Caller holds the store mutex (or runs
// single-threaded during Open/Close), so no append can race it.
func (ss *segmentSet) flushLocked() error {
	for i, seg := range ss.unflushed {
		if err := ss.flushSegmentLocked(seg); err != nil {
			ss.unflushed = slices.Delete(ss.unflushed, 0, i)
			return err
		}
	}
	ss.unflushed = ss.unflushed[:0]
	return nil
}

// flushOverCapLocked flushes the buffers if they hold writeBehindCap bytes
// or more. Commits and maintenance call it before they append, so the
// buffers never hold more than the cap plus one step's records.
func (ss *segmentSet) flushOverCapLocked() error {
	if ss.buffered < writeBehindCap {
		return nil
	}
	return ss.flushLocked()
}

// flushSegmentLocked writes seg's buffered bytes, creating its file first if
// this is the first flush to reach it. A file of seg's number that already
// exists is referenced by nothing — every segment the store loaded has its
// file, and a file is created only here — so it is the leftover of a
// create that failed after the file appeared, and is replaced.
func (ss *segmentSet) flushSegmentLocked(seg *segment) error {
	if seg.file == nil {
		name := segmentName(seg.num)
		attempts, err := ss.retry.run(func() error {
			var cerr error
			seg.file, cerr = ss.store.Create(name)
			if errors.Is(cerr, platform.ErrExists) {
				if cerr = ss.store.Remove(name); cerr == nil {
					seg.file, cerr = ss.store.Create(name)
				}
			}
			return cerr
		})
		if err != nil {
			return ioErr("create", name, seg.num, -1, attempts, err)
		}
	}
	if err := ss.writeAt(seg, seg.buf, seg.flushed); err != nil {
		return err
	}
	ss.buffered -= int64(len(seg.buf))
	seg.flushed = seg.size
	if seg != ss.tail || cap(seg.buf) > 2*writeBehindCap {
		// A sealed segment takes no more appends, and an oversized record
		// grew the array: let it go rather than keep its size resident.
		// Ordinary overflow — a prefix under the cap plus a batch under it
		// — stays below twice the cap, so the tail keeps its array.
		seg.buf = nil
	} else {
		seg.buf = seg.buf[:0]
	}
	return nil
}

// readAt reads into p at off of seg's logical content, retrying transient
// errors and serving any suffix still in seg's buffer from memory. A short
// read (io.EOF) leaves the unread tail of p zeroed, matching the previous
// direct-ReadAt behavior.
func (ss *segmentSet) readAt(seg *segment, p []byte, off int64) error {
	if len(seg.buf) > 0 && off+int64(len(p)) > seg.flushed {
		var fromFile int64
		if off < seg.flushed {
			fromFile = seg.flushed - off
			if err := ss.fileReadAt(seg, p[:fromFile], off); err != nil {
				return err
			}
		}
		if start := off + fromFile - seg.flushed; start < int64(len(seg.buf)) {
			copy(p[fromFile:], seg.buf[start:])
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

// create rolls the log to a new tail segment, a node segment if nodes is
// set, in memory: it consumes the next number, seals the old tail and puts
// the new segment's header in its buffer. The first flush that reaches the
// segment creates its file. Files are created in number order, so a crash
// leaves no gap in the numbering recovery's log scan walks. The buffer
// starts at the size a full segment or a full flush needs, so a bulk batch
// does not regrow it record by record.
func (ss *segmentSet) create(nodes bool, segmentSize int) {
	seg := &segment{num: ss.next, nodes: nodes, buf: make([]byte, 0, min(segmentSize, writeBehindCap))}
	ss.next++
	if ss.tail != nil {
		seg.prev = ss.tail.size
		ss.tail.sealed = true
	}
	seg.refs.Store(1)
	ss.segs[seg.num] = seg
	ss.tail = seg
	var hdr [segHeaderSize]byte
	binary.BigEndian.PutUint64(hdr[0:8], segMagic)
	binary.BigEndian.PutUint64(hdr[8:16], seg.num)
	binary.BigEndian.PutUint64(hdr[16:24], uint64(seg.prev))
	ss.buffer(seg, hdr[:])
}

// buffer appends b to seg's buffer.
func (ss *segmentSet) buffer(seg *segment, b []byte) {
	if len(seg.buf) == 0 {
		ss.unflushed = append(ss.unflushed, seg)
	}
	seg.buf = append(seg.buf, b...)
	seg.size += int64(len(b))
	seg.synced = false
	seg.gen++
	ss.buffered += int64(len(b))
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
	seg := &segment{num: num, file: f, size: size, flushed: size, sealed: true, synced: true}
	seg.refs.Store(1)
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

// free removes a segment whose live data has been fully evacuated: it
// drops the set's reference to the file handle and unlinks the file. A read
// or an off-mutex sync still holding the handle keeps it open, and the
// last of them closes it. No new reference can form: free runs under the
// exclusive store lock and removes the segment from the set, and a read's
// plan act only pins segments it finds in the set.
func (ss *segmentSet) free(num uint64) error {
	seg, ok := ss.segs[num]
	if !ok {
		return fmt.Errorf("%w: freeing unknown segment %d", ErrTampered, num)
	}
	if seg == ss.tail {
		return fmt.Errorf("%w: cannot free tail segment %d", ErrTampered, num)
	}
	delete(ss.segs, num)
	if err := seg.release(); err != nil {
		return err
	}
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

// tailMark is a log append position: the tail segment and its length.
type tailMark struct {
	seg  uint64
	size int64
}

// mark captures the current append position.
func (ss *segmentSet) mark() tailMark {
	if ss.tail == nil {
		return tailMark{}
	}
	return tailMark{seg: ss.tail.num, size: ss.tail.size}
}

// append buffers a raw encoded record at the tail, rolling to a new segment
// when the tail is full, and returns its location. It touches no device
// and cannot fail. A chunk record never joins a node segment, nor a
// map-node record a chunk segment: either opens a segment of its own kind.
// Records that are never live (dealloc, checkpoint, commit, seal) join
// whatever tail is open.
func (ss *segmentSet) append(rec []byte, segmentSize int) Location {
	typ := rec[0]
	if ss.tail == nil || (typ == recWrite || typ == recMapNode) && ss.tail.nodes != (typ == recMapNode) {
		ss.create(typ == recMapNode, segmentSize)
	}
	// Seal the tail if the record does not fit; oversized records get a
	// fresh segment to themselves.
	if ss.tail.size > segHeaderSize && ss.tail.size+int64(len(rec)) > int64(segmentSize) {
		ss.create(ss.tail.nodes, segmentSize)
	}
	tail := ss.tail
	loc := Location{Seg: tail.num, Off: uint32(tail.size), Len: uint32(len(rec))}
	ss.buffer(tail, rec)
	return loc
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

// syncSnapshotLocked flushes the write-behind buffers — the off-mutex fsync
// can only harden bytes that have reached the file — then collects every
// unsynced segment, taking a reference to its file handle for the sync.
// Caller holds the store mutex.
func (ss *segmentSet) syncSnapshotLocked() ([]syncTask, error) {
	if err := ss.flushLocked(); err != nil {
		return nil, err
	}
	var tasks []syncTask
	for _, n := range ss.numbers() {
		seg := ss.segs[n]
		if !seg.synced {
			seg.refs.Add(1)
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
// segments untouched since the snapshot become clean. It then releases the
// sync's references, closing the handle of a segment the cleaner freed
// while the sync was in flight. Caller holds the store mutex.
func (ss *segmentSet) finishSyncLocked(tasks []syncTask, ok bool) {
	for _, task := range tasks {
		if ok && task.seg.gen == task.gen {
			task.seg.synced = true
		}
		task.seg.release()
	}
}

// closeAll drops the set's reference to every file handle: each file is
// closed now, or by the read or sync that still holds it.
//
//tdblint:serial Close tears down handles under the store mutex so no commit can race the shutdown
func (ss *segmentSet) closeAll() error {
	var first error
	for _, seg := range ss.segs {
		if err := seg.release(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
