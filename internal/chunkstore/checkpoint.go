package chunkstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// The superblock is a tiny file holding, in two ping-pong slots, a MACed
// pointer to the latest checkpoint record plus the database's immutable
// format parameters. It is rewritten only at checkpoints; per-commit state
// is anchored by the MACed commit records in the log itself.
const (
	superblockName = "superblock"
	superMagic     = uint64(0x5444425355500001) // "TDBSUP\x00\x01"
	superSlotSize  = 512
	formatVersion  = 1
)

var errNoSuperblock = errors.New("chunkstore: no superblock")

// superblock is the decoded superblock content.
type superblock struct {
	seq         uint64
	suiteName   string
	fanout      int
	segmentSize int
	ckptLoc     Location
	// ivGenReserved is the IV-generation reservation high-water mark: every
	// generation any process lifetime may have used for an encryption is at
	// or below it, so Open ratchets the in-memory counter past it (zero in
	// superblocks written before the field existed).
	ivGenReserved uint64
}

// encodeSuperPayload serializes the MAC-covered portion of a slot.
func encodeSuperPayload(sb superblock) []byte {
	out := make([]byte, 0, 64)
	out = binary.BigEndian.AppendUint64(out, superMagic)
	out = binary.BigEndian.AppendUint64(out, sb.seq)
	out = binary.BigEndian.AppendUint16(out, formatVersion)
	out = append(out, byte(len(sb.suiteName)))
	out = append(out, sb.suiteName...)
	out = binary.BigEndian.AppendUint32(out, uint32(sb.fanout))
	out = binary.BigEndian.AppendUint32(out, uint32(sb.segmentSize))
	out = binary.BigEndian.AppendUint64(out, sb.ckptLoc.Seg)
	out = binary.BigEndian.AppendUint32(out, sb.ckptLoc.Off)
	out = binary.BigEndian.AppendUint32(out, sb.ckptLoc.Len)
	out = binary.BigEndian.AppendUint64(out, sb.ivGenReserved)
	return out
}

// decodeSuperSlot parses one slot, verifying its MAC. ok is false for slots
// that are empty, malformed, or fail authentication.
func decodeSuperSlot(slot []byte, suite sec.Suite) (superblock, bool) {
	var sb superblock
	if len(slot) < 4 {
		return sb, false
	}
	plen := int(binary.BigEndian.Uint16(slot[0:2]))
	mlen := int(binary.BigEndian.Uint16(slot[2:4]))
	if plen == 0 || 4+plen+mlen > len(slot) {
		return sb, false
	}
	payload := slot[4 : 4+plen]
	mac := slot[4+plen : 4+plen+mlen]
	if !sec.VerifyMAC(suite, payload, mac) {
		return sb, false
	}
	if len(payload) < 19 {
		return sb, false
	}
	if binary.BigEndian.Uint64(payload[0:8]) != superMagic {
		return sb, false
	}
	sb.seq = binary.BigEndian.Uint64(payload[8:16])
	if binary.BigEndian.Uint16(payload[16:18]) != formatVersion {
		return sb, false
	}
	nameLen := int(payload[18])
	if len(payload) < 19+nameLen+24 {
		return sb, false
	}
	sb.suiteName = string(payload[19 : 19+nameLen])
	p := 19 + nameLen
	sb.fanout = int(binary.BigEndian.Uint32(payload[p : p+4]))
	sb.segmentSize = int(binary.BigEndian.Uint32(payload[p+4 : p+8]))
	sb.ckptLoc.Seg = binary.BigEndian.Uint64(payload[p+8 : p+16])
	sb.ckptLoc.Off = binary.BigEndian.Uint32(payload[p+16 : p+20])
	sb.ckptLoc.Len = binary.BigEndian.Uint32(payload[p+20 : p+24])
	// The IV reservation mark is absent from superblocks written before the
	// field existed; treat those as zero (Open then falls back to the
	// commit-sequence ratchet).
	if len(payload) >= p+32 {
		sb.ivGenReserved = binary.BigEndian.Uint64(payload[p+24 : p+32])
	}
	return sb, true
}

// superblockFile returns the cached superblock file handle, opening (and,
// with create, creating) it on first use. The handle stays open for the life
// of the store — Open/Create plus Close per superblock access would cost two
// syscalls and one extra transient-fault window on every checkpoint — and is
// closed in Store.Close.
func (s *Store) superblockFile(create bool) (platform.File, error) {
	if s.superFile != nil {
		return s.superFile, nil
	}
	var f platform.File
	attempts, err := s.cfg.Retry.run(func() error {
		var oerr error
		f, oerr = s.cfg.Store.Open(superblockName)
		if create && errors.Is(oerr, platform.ErrNotFound) {
			f, oerr = s.cfg.Store.Create(superblockName)
		}
		return oerr
	})
	if err != nil {
		if !create && errors.Is(err, platform.ErrNotFound) {
			return nil, errNoSuperblock
		}
		return nil, ioErr("open", superblockName, 0, -1, attempts, err)
	}
	s.superFile = f
	return f, nil
}

// readSuperblock loads and authenticates the superblock, returning
// errNoSuperblock for a fresh store.
func (s *Store) readSuperblock() (superblock, error) {
	f, err := s.superblockFile(false)
	if err != nil {
		return superblock{}, err
	}
	buf := make([]byte, 2*superSlotSize)
	attempts, err := s.cfg.Retry.run(func() error {
		if _, rerr := f.ReadAt(buf, 0); rerr != nil && rerr != io.EOF {
			return rerr
		}
		return nil
	})
	if err != nil {
		return superblock{}, ioErr("read", superblockName, 0, 0, attempts, err)
	}
	sb0, ok0 := decodeSuperSlot(buf[:superSlotSize], s.suite)
	sb1, ok1 := decodeSuperSlot(buf[superSlotSize:], s.suite)
	switch {
	case ok0 && ok1:
		if sb1.seq > sb0.seq {
			s.superSeq = sb1.seq
			return sb1, nil
		}
		s.superSeq = sb0.seq
		return sb0, nil
	case ok0:
		s.superSeq = sb0.seq
		return sb0, nil
	case ok1:
		s.superSeq = sb1.seq
		return sb1, nil
	default:
		return superblock{}, fmt.Errorf("%w: superblock fails validation", ErrTampered)
	}
}

// writeSuperblock publishes a checkpoint pointer and IV-generation
// reservation into the alternate slot. It is called with the new checkpoint
// location at checkpoints, and with the unchanged s.lastCkpt when only the
// IV reservation needs extending.
//
// With syncNow false the slot is written but its fsync is deferred
// (superDirty): the next log-tail harden barrier pays it, so a checkpoint
// costs one durability barrier instead of two. That is safe because the
// slot only points at a checkpoint record that is already durable — a crash
// before the deferred sync recovers from the previous anchor and replays
// the residual log across the new checkpoint's records. Before writing a
// new slot, any dirty slot is synced first: with two ping-pong slots, a
// second unsynced write would land on the last durable slot and an honest
// crash could leave no valid superblock at all.
func (s *Store) writeSuperblock(ckptLoc Location, ivGenReserved uint64, syncNow bool) error {
	if err := s.syncSuperIfDirtyLocked(); err != nil {
		return err
	}
	s.superSeq++
	sb := superblock{
		seq:           s.superSeq,
		suiteName:     s.suite.Name(),
		fanout:        s.cfg.Fanout,
		segmentSize:   s.cfg.SegmentSize,
		ckptLoc:       ckptLoc,
		ivGenReserved: ivGenReserved,
	}
	payload := encodeSuperPayload(sb)
	mac := s.suite.MAC(payload)
	slot := make([]byte, superSlotSize)
	binary.BigEndian.PutUint16(slot[0:2], uint16(len(payload)))
	binary.BigEndian.PutUint16(slot[2:4], uint16(len(mac)))
	copy(slot[4:], payload)
	copy(slot[4+len(payload):], mac)

	f, err := s.superblockFile(true)
	if err != nil {
		return err
	}
	off := int64(s.superSeq%2) * superSlotSize
	attempts, err := s.cfg.Retry.run(func() error {
		_, werr := f.WriteAt(slot, off)
		return werr
	})
	if err != nil {
		return ioErr("write", superblockName, 0, off, attempts, err)
	}
	if !syncNow {
		s.superDirty = true
		return nil
	}
	attempts, err = s.cfg.Retry.run(f.Sync)
	if err != nil {
		return ioErr("sync", superblockName, 0, -1, attempts, err)
	}
	return nil
}

// syncSuperIfDirtyLocked pays the fsync deferred by a checkpoint's
// superblock write. It is folded into every log-tail harden barrier
// (hardenLocked, harden rounds), and run eagerly where a stale
// durable anchor would be unsafe or lost: before a new slot write
// (ping-pong safety), before the cleaner frees victim segments the old
// anchor still references, and at format/Close. Caller holds s.mu.
func (s *Store) syncSuperIfDirtyLocked() error {
	if !s.superDirty {
		return nil
	}
	f, err := s.superblockFile(false)
	if err != nil {
		return err
	}
	attempts, err := s.cfg.Retry.run(f.Sync)
	if err != nil {
		return ioErr("sync", superblockName, 0, -1, attempts, err)
	}
	s.superDirty = false
	return nil
}

// checkpointPayload is the decoded checkpoint record content.
type ckptPayload struct {
	// seqNext is the commit sequence number of the checkpoint's own commit
	// record; recovery validates the scan against it.
	seqNext  uint64
	height   int
	rootLoc  Location
	rootHash []byte
	alloc    *allocator
	// segLive maps segment number to live bytes at checkpoint time.
	segLive map[uint64]int64
}

func encodeCkptPayload(p ckptPayload) []byte {
	out := make([]byte, 0, 64+16*len(p.segLive))
	out = binary.BigEndian.AppendUint64(out, p.seqNext)
	out = append(out, byte(p.height))
	out = binary.BigEndian.AppendUint64(out, p.rootLoc.Seg)
	out = binary.BigEndian.AppendUint32(out, p.rootLoc.Off)
	out = binary.BigEndian.AppendUint32(out, p.rootLoc.Len)
	out = append(out, byte(len(p.rootHash)))
	out = append(out, p.rootHash...)
	out = append(out, p.alloc.serialize()...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.segLive)))
	// Deterministic order is unnecessary for correctness but keeps the
	// encoding reproducible for tests.
	nums := make([]uint64, 0, len(p.segLive))
	for n := range p.segLive {
		nums = append(nums, n)
	}
	for i := 1; i < len(nums); i++ {
		for j := i; j > 0 && nums[j-1] > nums[j]; j-- {
			nums[j-1], nums[j] = nums[j], nums[j-1]
		}
	}
	for _, n := range nums {
		out = binary.BigEndian.AppendUint64(out, n)
		out = binary.BigEndian.AppendUint64(out, uint64(p.segLive[n]))
	}
	return out
}

func decodeCkptPayload(data []byte) (ckptPayload, error) {
	var p ckptPayload
	if len(data) < 26 {
		return p, fmt.Errorf("%w: short checkpoint payload", ErrTampered)
	}
	p.seqNext = binary.BigEndian.Uint64(data[0:8])
	p.height = int(data[8])
	p.rootLoc.Seg = binary.BigEndian.Uint64(data[9:17])
	p.rootLoc.Off = binary.BigEndian.Uint32(data[17:21])
	p.rootLoc.Len = binary.BigEndian.Uint32(data[21:25])
	hashLen := int(data[25])
	pos := 26
	if len(data) < pos+hashLen {
		return p, fmt.Errorf("%w: truncated checkpoint root hash", ErrTampered)
	}
	p.rootHash = append([]byte(nil), data[pos:pos+hashLen]...)
	pos += hashLen
	alloc, n, err := deserializeAllocator(data[pos:])
	if err != nil {
		return p, err
	}
	p.alloc = alloc
	pos += n
	if len(data) < pos+4 {
		return p, fmt.Errorf("%w: truncated checkpoint segment table", ErrTampered)
	}
	count := int(binary.BigEndian.Uint32(data[pos : pos+4]))
	pos += 4
	if len(data) < pos+16*count {
		return p, fmt.Errorf("%w: truncated checkpoint segment table entries", ErrTampered)
	}
	p.segLive = make(map[uint64]int64, count)
	for i := 0; i < count; i++ {
		num := binary.BigEndian.Uint64(data[pos : pos+8])
		live := int64(binary.BigEndian.Uint64(data[pos+8 : pos+16]))
		if live < 0 {
			return p, fmt.Errorf("%w: negative live bytes for segment %d", ErrTampered, num)
		}
		p.segLive[num] = live
		pos += 16
	}
	if pos != len(data) {
		return p, fmt.Errorf("%w: %d trailing bytes in checkpoint payload", ErrTampered, len(data)-pos)
	}
	return p, nil
}

// checkpointLocked writes all dirty location map nodes to the log, appends
// a checkpoint record and a durable commit, and publishes the checkpoint in
// the superblock. This bounds the residual log that recovery must replay
// (paper §3.2.1).
func (s *Store) checkpointLocked() error {
	// A failed commit may have left orphaned records at the tail; they must
	// be physically discarded before this checkpoint appends anything, or the
	// checkpoint's own durable records would land beyond the rewind mark —
	// poised to be truncated away by the next commit's rewind, and leaving
	// the orphans ahead of a durable commit record where crash recovery would
	// replay them.
	if err := s.completePendingRewindLocked(); err != nil {
		return err
	}
	dirty := s.lm.dirtyNodes() // post-order: children before parents
	// Reserve a fresh IV generation for the node writes; checkpoints share
	// the ivGen namespace with commit preparations and cleaner relocations,
	// so seeds never collide (see commit_pipeline.go).
	gen, err := s.nextIVGenLocked()
	if err != nil {
		return err
	}
	ivSeq := gen << ivGenBits
	for i, n := range dirty {
		// Refresh inner entries so the serialization carries children's
		// latest stored locations and content hashes.
		if n.level > 0 {
			for j, kid := range n.kids {
				if kid != nil {
					n.entries[j] = entry{loc: kid.loc, hash: append([]byte(nil), s.lm.nodeHash(kid)...)}
				}
			}
		}
		plain := n.serialize()
		slot := uint64(i) & (1<<ivGenBits - 1)
		if i > 0 && slot == 0 {
			// Slot space exhausted; reserve another generation rather than
			// wrapping around into already-used seeds.
			gen, err := s.nextIVGenLocked()
			if err != nil {
				return err
			}
			ivSeq = gen << ivGenBits
		}
		ciphertext, err := s.suite.Encrypt(plain, ivSeq|slot)
		if err != nil {
			return fmt.Errorf("chunkstore: encrypting map node: %w", err)
		}
		rec := encodeRecord(recMapNode, mapNodeRecordBody(n.level, n.index, ciphertext))
		loc, err := s.segs.append(rec, s.cfg.SegmentSize)
		if err != nil {
			return err
		}
		s.adjustLive(loc, int64(loc.Len))
		if !n.loc.IsZero() {
			s.adjustLive(n.loc, -int64(n.loc.Len))
		}
		s.residualBytes += int64(loc.Len)
		n.loc = loc
		n.dirty = false
		n.hash = s.suite.Hash(plain)
		n.hashStale = false
	}
	// With children refreshed bottom-up, the root hash is now current.
	rootHash := s.lm.rootHash()

	segLive := make(map[uint64]int64, len(s.segs.segs))
	for num, seg := range s.segs.segs {
		segLive[num] = seg.live
	}
	payload := encodeCkptPayload(ckptPayload{
		seqNext:  s.commitSeq + 1,
		height:   s.lm.height,
		rootLoc:  s.lm.root.loc,
		rootHash: rootHash,
		alloc:    s.alloc,
		segLive:  segLive,
	})
	// The checkpoint payload gets its own generation so it can never collide
	// with a node slot.
	payloadGen, err := s.nextIVGenLocked()
	if err != nil {
		return err
	}
	ciphertext, err := s.suite.Encrypt(payload, payloadGen<<ivGenBits)
	if err != nil {
		return fmt.Errorf("chunkstore: encrypting checkpoint: %w", err)
	}
	rec := encodeRecord(recCheckpoint, checkpointRecordBody(s.suite.MAC(ciphertext), ciphertext))
	ckptLoc, err := s.segs.append(rec, s.cfg.SegmentSize)
	if err != nil {
		return err
	}
	// Checkpoints harden inline, under the mutex they already hold: the
	// superblock written below must point at a checkpoint that is durable,
	// and the harden also pays whatever earlier durable commits still owe
	// (one sync covers them all). On failure the record stays appended and
	// pending like any unhardened durable commit; the next round, checkpoint
	// or Close retries.
	if _, err := s.appendCommitRecordLocked(true); err != nil {
		return err
	}
	if err := s.hardenLocked(); err != nil {
		return err
	}
	// Write the new anchor into the alternate slot but defer its fsync to
	// the next harden barrier: the checkpoint record above is already
	// durable, so a crash before the deferred sync merely recovers from the
	// previous anchor and replays across this checkpoint's records. This
	// makes a checkpoint cost one durability barrier (the inline harden)
	// instead of two. The IV reservation written is the current durable
	// limit, UNCHANGED: advancing the limit on an unsynced write would let a
	// crash hand the same IV generations out again under the same key.
	if err := s.writeSuperblock(ckptLoc, s.ivGenLimit.Load(), false); err != nil {
		return err
	}
	s.lastCkpt = ckptLoc
	s.residualBytes = 0
	s.statCheckpoints++
	return nil
}
