package chunkstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

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
	// formatVersion 4: the null suite's checksums became CRC-32C.
	formatVersion = 4
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
	// or below it, so Open ratchets the in-memory counter past it.
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
// that are empty, malformed, or fail authentication. claim describes what a
// slot with an intact magic says it was written under — suite name and
// format version — whether or not it authenticates: it explains a failed
// open, and is never used to choose a suite.
func decodeSuperSlot(slot []byte, suite sec.Suite) (sb superblock, claim string, ok bool) {
	if len(slot) < 4 {
		return sb, "", false
	}
	plen := int(binary.BigEndian.Uint16(slot[0:2]))
	mlen := int(binary.BigEndian.Uint16(slot[2:4]))
	if plen == 0 || 4+plen+mlen > len(slot) {
		return sb, "", false
	}
	payload := slot[4 : 4+plen]
	mac := slot[4+plen : 4+plen+mlen]
	if len(payload) < 19 || binary.BigEndian.Uint64(payload[0:8]) != superMagic {
		return sb, "", false
	}
	version := binary.BigEndian.Uint16(payload[16:18])
	nameLen := int(payload[18])
	if len(payload) < 19+nameLen {
		return sb, "", false
	}
	claim = fmt.Sprintf("slot names %q, format %d", payload[19:19+nameLen], version)
	if !sec.VerifyMAC(suite, payload, mac) || version != formatVersion || len(payload) < 19+nameLen+32 {
		return sb, claim, false
	}
	sb.seq = binary.BigEndian.Uint64(payload[8:16])
	sb.suiteName = string(payload[19 : 19+nameLen])
	p := 19 + nameLen
	sb.fanout = int(binary.BigEndian.Uint32(payload[p : p+4]))
	sb.segmentSize = int(binary.BigEndian.Uint32(payload[p+4 : p+8]))
	sb.ckptLoc.Seg = binary.BigEndian.Uint64(payload[p+8 : p+16])
	sb.ckptLoc.Off = binary.BigEndian.Uint32(payload[p+16 : p+20])
	sb.ckptLoc.Len = binary.BigEndian.Uint32(payload[p+20 : p+24])
	sb.ivGenReserved = binary.BigEndian.Uint64(payload[p+24 : p+32])
	return sb, claim, true
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
// errNoSuperblock for a fresh store. An empty or all-zero superblock file
// counts as none: a format that crashed before its first slot reached the
// disk leaves one (empty, or with the slot's sector read back as zeros),
// and no checkpoint was ever anchored in it.
func (s *Store) readSuperblock() (superblock, error) {
	f, err := s.superblockFile(false)
	if err != nil {
		return superblock{}, err
	}
	buf := make([]byte, 2*superSlotSize)
	n := 0
	attempts, err := s.cfg.Retry.run(func() error {
		var rerr error
		if n, rerr = f.ReadAt(buf, 0); rerr != nil && rerr != io.EOF {
			return rerr
		}
		return nil
	})
	if err != nil {
		return superblock{}, ioErr("read", superblockName, 0, 0, attempts, err)
	}
	if len(bytes.TrimLeft(buf[:n], "\x00")) == 0 {
		return superblock{}, errNoSuperblock
	}
	sb0, claim0, ok0 := decodeSuperSlot(buf[:superSlotSize], s.suite)
	sb1, claim1, ok1 := decodeSuperSlot(buf[superSlotSize:], s.suite)
	if ok1 && (!ok0 || sb1.seq > sb0.seq) {
		sb0, ok0 = sb1, true
	}
	if ok0 {
		s.superSeq = sb0.seq
		return sb0, nil
	}
	// A store opened under the wrong suite lands here, not at recover's
	// suite-name check: the slot MACs differ before the names are compared.
	// Saying what the slots claim tells that case apart from plain
	// tampering without trusting it.
	claims := claim0
	if claim1 != claim0 {
		claims = strings.Trim(claim0+"; "+claim1, "; ")
	}
	if claims != "" {
		claims = " (" + claims + ")"
	}
	return superblock{}, fmt.Errorf("%w: superblock fails validation under %q%s", ErrTampered, s.suite.Name(), claims)
}

// writeSuperblock publishes a checkpoint pointer and IV-generation
// reservation into the alternate slot and syncs it. It is called with the
// new checkpoint location at checkpoints, and with the unchanged s.lastCkpt
// when only the IV reservation needs extending. superSeq advances only once
// the slot is durable, so a failed attempt is retried into the same slot and
// the ping-pong pair never overwrites the last durable anchor.
func (s *Store) writeSuperblock(ckptLoc Location, ivGenReserved uint64) error {
	seq := s.superSeq + 1
	sb := superblock{
		seq:           seq,
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
	off := int64(seq%2) * superSlotSize
	attempts, err := s.cfg.Retry.run(func() error {
		_, werr := f.WriteAt(slot, off)
		return werr
	})
	if err != nil {
		return ioErr("write", superblockName, 0, off, attempts, err)
	}
	attempts, err = s.cfg.Retry.run(f.Sync)
	if err != nil {
		return ioErr("sync", superblockName, 0, -1, attempts, err)
	}
	s.superSeq = seq
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
	// round is the open harden round at checkpoint time: durable commit
	// records appended before the checkpoint record that no seal covers yet.
	// Recovery continues it from here, so the round's seal verifies even
	// though part of the round precedes the residual log.
	round roundChain
	// nodeSegs lists, ascending, the node segments below the one the payload
	// was encoded for; recovery marks these, that one and the root's.
	nodeSegs []uint64
}

func encodeCkptPayload(p ckptPayload) []byte {
	out := make([]byte, 0, 64+16*len(p.segLive)+8*len(p.nodeSegs))
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
	for _, n := range slices.Sorted(maps.Keys(p.segLive)) {
		out = binary.BigEndian.AppendUint64(out, n)
		out = binary.BigEndian.AppendUint64(out, uint64(p.segLive[n]))
	}
	out = binary.BigEndian.AppendUint64(out, p.round.stamp)
	out = binary.BigEndian.AppendUint32(out, p.round.count)
	out = append(out, byte(len(p.round.chain)))
	out = append(out, p.round.chain...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.nodeSegs)))
	for _, n := range p.nodeSegs {
		out = binary.BigEndian.AppendUint64(out, n)
	}
	return out
}

// decodeCkptPayload decodes the payload of the checkpoint record stored in
// segment ckptSeg.
func decodeCkptPayload(data []byte, ckptSeg uint64) (ckptPayload, error) {
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
	if len(data) < pos+13 || len(data) < pos+13+int(data[pos+12]) {
		return p, fmt.Errorf("%w: truncated checkpoint round", ErrTampered)
	}
	p.round.stamp = binary.BigEndian.Uint64(data[pos : pos+8])
	p.round.count = binary.BigEndian.Uint32(data[pos+8 : pos+12])
	if n := int(data[pos+12]); n > 0 {
		p.round.chain = append([]byte(nil), data[pos+13:pos+13+n]...)
	}
	pos += 13 + len(p.round.chain)
	if len(data) < pos+4 || len(data) < pos+4+8*int(binary.BigEndian.Uint32(data[pos:pos+4])) {
		return p, fmt.Errorf("%w: truncated checkpoint node-segment list", ErrTampered)
	}
	p.nodeSegs = make([]uint64, binary.BigEndian.Uint32(data[pos:pos+4]))
	pos += 4
	for i := range p.nodeSegs {
		p.nodeSegs[i] = binary.BigEndian.Uint64(data[pos : pos+8])
		pos += 8
		// Strictly ascending and below the checkpoint's own segment, which
		// recovery marks on its own.
		if p.nodeSegs[i] >= ckptSeg || (i > 0 && p.nodeSegs[i] <= p.nodeSegs[i-1]) {
			return p, fmt.Errorf("%w: checkpoint in segment %d lists node segment %d out of order", ErrTampered, ckptSeg, p.nodeSegs[i])
		}
	}
	if pos != len(data) {
		return p, fmt.Errorf("%w: %d trailing bytes in checkpoint payload", ErrTampered, len(data)-pos)
	}
	return p, nil
}

// checkpointLocked writes the dirty location map nodes to a fresh node
// segment, appends a checkpoint record and a durable commit, and publishes
// the checkpoint in the superblock, bounding the residual log recovery
// replays (paper §3.2.1). Checkpoints own the node segments as the cleaner
// owns chunk segments: with the dirty nodes a checkpoint rewrites the live
// nodes of every node segment at most MaxUtilization live (the cleaner's
// profitability bound), and the older node segments it leaves empty are
// freed once it is published. With nothing dirty it writes no node.
func (s *Store) checkpointLocked() error {
	dirty := s.lm.dirtyNodes() // post-order: children before parents
	if len(dirty) > 0 {
		if err := s.markSparseNodes(); err != nil {
			return err
		}
		dirty = s.lm.dirtyNodes()
	}
	// Reserve a fresh IV generation for the node writes; checkpoints share
	// the ivGen namespace with commit preparations, so seeds never collide
	// (see commit_pipeline.go).
	gen, err := s.nextIVGenLocked()
	if err != nil {
		return err
	}
	ivSeq := gen << ivGenBits
	// Node records never share a segment with chunk records, and this
	// checkpoint's never share one with an older checkpoint's.
	s.segs.create(true, s.cfg.SegmentSize)
	first := s.segs.tail.num
	for i, n := range dirty {
		// A failure here leaves the nodes before n written and unsigned,
		// which the next seal signs (appendSealLocked).
		if err := s.segs.flushOverCapLocked(); err != nil {
			return err
		}
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
		loc := s.appendLocked(encodeRecord(recMapNode, mapNodeRecordBody(n.level, n.index, ciphertext)))
		s.adjustLive(loc, int64(loc.Len))
		if !n.loc.IsZero() {
			s.adjustLive(n.loc, -int64(n.loc.Len))
		}
		s.residualBytes += int64(loc.Len)
		n.loc = loc
		n.dirty = false
		n.hash = s.suite.Hash(plain)
		n.hashStale = false
		// Point the parent at the new copy now, as replaying the record
		// does (noteNodeWritten): should the checkpoint fail before the
		// parent's turn, the in-memory root still matches the log's.
		if p := s.lm.findParent(n); p != nil {
			p.entries[s.lm.childIndex(ChunkID(n.index*s.lm.span(n.level)), p.level)] = entry{loc: loc, hash: n.hash}
		}
	}
	// With children refreshed bottom-up, the root hash is now current.
	rootHash := s.lm.rootHash()

	segLive := make(map[uint64]int64, len(s.segs.segs))
	var nodeSegs []uint64
	for num, seg := range s.segs.segs {
		segLive[num] = seg.live
		if seg.nodes && num < s.segs.tail.num {
			nodeSegs = append(nodeSegs, num)
		}
	}
	slices.Sort(nodeSegs)
	payload := encodeCkptPayload(ckptPayload{
		seqNext:  s.commitSeq + 1,
		height:   s.lm.height,
		rootLoc:  s.lm.root.loc,
		rootHash: rootHash,
		alloc:    s.alloc,
		segLive:  segLive,
		round:    s.round,
		nodeSegs: nodeSegs,
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
	ckptLoc := s.appendLocked(encodeRecord(recCheckpoint, checkpointRecordBody(s.suite.MAC(ciphertext), ciphertext)))
	// Checkpoints harden inline, under the mutex they already hold: the
	// superblock written below must point at a checkpoint that is durable,
	// and the harden also pays whatever earlier durable commits still owe
	// (one sync covers them all). On failure the record stays appended and
	// pending like any unhardened durable commit; the next round, checkpoint
	// or Close retries.
	s.appendCommitRecordLocked(true)
	// A format (no slot written yet) seals and syncs its log but advances
	// the counter only once its slot is durable: Open formats only while
	// the counter reads zero, so the counter must not leave zero before a
	// slot anchors the store. A crash between the slot and the advance
	// leaves the log one stamp ahead, which recovery catches up.
	format := s.superSeq == 0
	if format {
		s.sealOpenRoundLocked()
		if err := s.segs.syncDirty(); err != nil {
			return err
		}
	} else if err := s.hardenLocked(); err != nil {
		return err
	}
	// Publish the new anchor, written and synced into the alternate slot.
	// The IV reservation it carries is the current durable limit,
	// unchanged.
	if err := s.writeSuperblock(ckptLoc, s.ivGenLimit.Load()); err != nil {
		return err
	}
	if format {
		if err := s.hardenLocked(); err != nil {
			return err
		}
	}
	s.lastCkpt = ckptLoc
	s.residualBytes = 0
	s.statCheckpoints++
	// The durable anchor now reads no node in the older node segments this
	// checkpoint emptied, so the ones no snapshot pins go now.
	unpinned := s.firstUnpinned()
	for _, num := range s.segs.numbers() {
		if seg := s.segs.segs[num]; seg.nodes && seg.live == 0 && num < first && num >= unpinned {
			if err := s.segs.free(num); err != nil {
				return err
			}
		}
	}
	return nil
}

// markSparseNodes marks dirty every live map node stored in an unpinned
// node segment at most MaxUtilization live. A node's stored location says
// nothing about its descendants', so every non-resident inner node is
// loaded, and a non-resident leaf if its own copy lies in such a segment.
func (s *Store) markSparseNodes() error {
	unpinned := s.firstUnpinned()
	sparse := map[uint64]bool{}
	for num, seg := range s.segs.segs {
		if seg.nodes && num >= unpinned && float64(seg.live) <= s.cfg.MaxUtilization*float64(seg.size) {
			sparse[num] = true
		}
	}
	if len(sparse) == 0 {
		return nil
	}
	var walk func(n *mapNode) error
	walk = func(n *mapNode) error {
		if !n.loc.IsZero() && sparse[n.loc.Seg] {
			n.dirty = true
		}
		if n.level == 0 {
			return nil
		}
		for i := range n.entries {
			kid := n.kids[i]
			if kid == nil {
				if e := n.entries[i]; e.isEmpty() || (n.level == 1 && !sparse[e.loc.Seg]) {
					continue
				}
				var err error
				if kid, err = s.lm.loadChild(n, i); err != nil {
					return err
				}
			}
			if err := walk(kid); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(s.lm.root)
}
