package chunkstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"runtime"
	"slices"
	"testing"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// seedImage returns the files of a freshly written and closed store, and
// its suite: two committed chunk writes, the deallocation of one of them,
// then a checkpoint, so the log holds write, dealloc, commit, round-seal,
// map-node and checkpoint records and the superblock points at the
// checkpoint.
func seedImage(tb testing.TB) (map[string][]byte, sec.Suite) {
	tb.Helper()
	suite, err := sec.NewSuite("aes-gcm", []byte("test-device-secret-0123456789abc"))
	if err != nil {
		tb.Fatalf("NewSuite: %v", err)
	}
	mem := platform.NewMemStore()
	s, err := Open(Config{Store: mem, Counter: platform.NewMemCounter(), Suite: suite})
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	var cids [2]ChunkID
	b := s.NewBatch()
	for i, v := range []string{"a usage meter record", "a revoked license"} {
		if cids[i], err = s.AllocateChunkID(); err != nil {
			tb.Fatalf("AllocateChunkID: %v", err)
		}
		b.Write(cids[i], []byte(v))
	}
	if err := s.Commit(b, true); err != nil {
		tb.Fatalf("Commit: %v", err)
	}
	b = s.NewBatch()
	b.Deallocate(cids[1])
	if err := s.Commit(b, true); err != nil {
		tb.Fatalf("Commit: %v", err)
	}
	// A snapshot open across the checkpoint pins the format checkpoint's
	// node segment, which the checkpoint empties: the log keeps the records
	// of both checkpoints, an empty store's and one with data.
	snap, err := s.TakeSnapshot()
	if err != nil {
		tb.Fatalf("TakeSnapshot: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		tb.Fatalf("Checkpoint: %v", err)
	}
	snap.Close()
	if err := s.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	return mem.Snapshot(), suite
}

// logRecord is one record image of a log, the segment holding it and its
// ordinal in the log.
type logRecord struct {
	seg uint64
	img []byte
	n   int
}

// logRecords returns the records of seedImage's log by type, in log order,
// and the store's suite.
func logRecords(tb testing.TB) (map[byte][]logRecord, sec.Suite) {
	tb.Helper()
	snap, suite := seedImage(tb)
	recs := make(map[byte][]logRecord)
	ord := 0
	for _, name := range slices.Sorted(maps.Keys(snap)) {
		seg, ok := parseSegmentName(name)
		if !ok {
			continue
		}
		img := snap[name]
		for off := segHeaderSize; off+recordHeaderSize <= len(img); {
			typ, n, err := decodeRecordHeader(img[off:])
			end := off + recordHeaderSize + int(n)
			if err != nil || end > len(img) || !checkRecordCRC(img[off:end]) {
				break
			}
			recs[typ] = append(recs[typ], logRecord{seg, img[off:end], ord})
			off, ord = end, ord+1
		}
	}
	return recs, suite
}

// allocSlack and allocPerByte bound what one decode of untrusted bytes may
// allocate: a length or count field must never make a decoder allocate
// more than a small multiple of the bytes that back it.
const (
	allocSlack   = 64 << 10
	allocPerByte = 64
)

// boundedAlloc runs decode and fails t if it allocated more than the bound
// for an n-byte input. The bound is loose enough that the runtime's own
// allocations meanwhile cannot trip it, and tight enough that a decoder
// sizing a buffer from a hostile count does.
func boundedAlloc(t *testing.T, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(allocSlack+allocPerByte*n); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, want <= %d", n, got, limit)
	}
}

// fixedSeal is a round of a real log and the body of the seal record that
// seals it.
type fixedSeal struct {
	round roundChain
	body  []byte
	suite sec.Suite
}

// firstSeal rebuilds the round that the first seal record of recs seals
// from the durable commit records before it, as recovery does, and checks
// that the seal is that round's.
func firstSeal(tb testing.TB, recs map[byte][]logRecord, suite sec.Suite) fixedSeal {
	tb.Helper()
	if recs[recSeal] == nil {
		tb.Fatal("the seed log holds no seal record")
	}
	seal := recs[recSeal][0]
	fs := fixedSeal{body: seal.img[recordHeaderSize:], suite: suite}
	for _, rec := range recs[recCommit] {
		if rec.n > seal.n {
			break
		}
		cr, _, err := parseCommitRecord(rec.img[recordHeaderSize:])
		if err != nil {
			tb.Fatalf("parseCommitRecord: %v", err)
		}
		if cr.durable {
			fs.round.add(suite, cr.counter, cr.mac)
		}
	}
	if !fs.round.sealedBy(suite, fs.body) {
		tb.Fatal("the seed log's first seal does not seal the round before it")
	}
	return fs
}

// FuzzParseRecordBytes holds the log's record framing, and the body
// parsers that recovery and the cleaner run on unverified log bytes, to the
// hostile-disk contract: whatever bytes a segment holds, parsing a record
// image yields a body of exactly the length the header claims, and
// splitting that body with its type's parser yields fields that lie where
// the format puts them, or either step fails with an error wrapping
// ErrTampered, with bounded allocation and never a panic. A seal body is
// split by checking it against a fixed round of the seed log, which only
// that round's real seal passes. The seeds are one record of each type
// from a real log.
func FuzzParseRecordBytes(f *testing.F) {
	recs, suite := logRecords(f)
	seal := firstSeal(f, recs, suite)
	for _, typ := range []byte{recWrite, recDealloc, recMapNode, recCheckpoint, recCommit, recSeal} {
		if recs[typ] == nil {
			f.Fatalf("the seed log holds no record of type %d", typ)
		}
		f.Add(recs[typ][0].img)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var typ byte
		var body []byte
		var err error
		boundedAlloc(t, len(buf), func() {
			typ, body, err = parseRecordBytes(Location{Len: uint32(len(buf))}, buf)
		})
		if err != nil {
			if !errors.Is(err, ErrTampered) {
				t.Fatalf("parseRecordBytes: %v does not wrap ErrTampered", err)
			}
			return
		}
		if n := binary.BigEndian.Uint32(buf[1:5]); typ != buf[0] || len(body) != int(n) {
			t.Fatalf("parsed type %d with a %d-byte body; the header says type %d, %d bytes", typ, len(body), buf[0], n)
		}
		var bad bool
		boundedAlloc(t, len(body), func() { bad, err = misparsedBody(typ, body, seal) })
		if err != nil && !errors.Is(err, ErrTampered) {
			t.Fatalf("parsing a type-%d body: %v does not wrap ErrTampered", typ, err)
		}
		if bad {
			t.Fatalf("a %d-byte type-%d body split into fields the format does not put there", len(body), typ)
		}
	})
}

// misparsedBody splits body with the parser for record type typ and
// reports whether the fields it returned differ from the bytes the record
// format puts there, or, for a seal, whether seal's round accepts a body
// other than its own seal's.
func misparsedBody(typ byte, body []byte, seal fixedSeal) (bool, error) {
	be := binary.BigEndian
	switch typ {
	case recWrite:
		cid, ciphertext, err := parseWriteRecord(body)
		return err == nil && (cid != ChunkID(be.Uint64(body)) || !bytes.Equal(ciphertext, body[8:])), err
	case recDealloc:
		cid, err := parseDeallocRecord(body)
		return err == nil && (len(body) != 8 || cid != ChunkID(be.Uint64(body))), err
	case recMapNode:
		level, index, ciphertext, err := parseMapNodeRecord(body)
		return err == nil && (level != int(body[0]) || index != be.Uint64(body[1:9]) || !bytes.Equal(ciphertext, body[9:])), err
	case recCheckpoint:
		mac, ciphertext, err := parseCheckpointRecord(body)
		return err == nil && (len(mac) != int(be.Uint16(body)) || 2+len(mac)+len(ciphertext) != len(body) ||
			!bytes.Equal(ciphertext, body[2+len(mac):])), err
	case recCommit:
		cr, signed, err := parseCommitRecord(body)
		if err != nil {
			return false, err
		}
		hashEnd := 19 + int(be.Uint16(body[17:19]))
		return cr.seq != be.Uint64(body) || cr.counter != be.Uint64(body[9:17]) ||
			!bytes.Equal(signed, body[:hashEnd]) || !bytes.Equal(cr.rootHash, body[19:hashEnd]) ||
			!bytes.Equal(cr.mac, body[hashEnd+2:hashEnd+2+int(be.Uint16(body[hashEnd:]))]), nil
	case recSeal:
		return seal.round.sealedBy(seal.suite, body) && !bytes.Equal(body, seal.body), nil
	}
	return false, nil
}

// FuzzDeserializeMapNode holds the map-node decoder, which runs on the
// plaintext of every map-node record a checkpoint load, a fault-in or
// replay decrypts, to the same contract: the node or an error wrapping
// ErrTampered, with bounded allocation and never a panic. A decoded node
// serializes to bytes that decode to the same serialization. The seeds are
// the decrypted map-node records of a real log.
func FuzzDeserializeMapNode(f *testing.F) {
	recs, suite := logRecords(f)
	if recs[recMapNode] == nil {
		f.Fatal("the seed log holds no map-node record")
	}
	for _, rec := range recs[recMapNode] {
		_, _, ciphertext, err := parseMapNodeRecord(rec.img[recordHeaderSize:])
		if err != nil {
			f.Fatalf("parseMapNodeRecord: %v", err)
		}
		plain, err := suite.Decrypt(append([]byte(nil), ciphertext...))
		if err != nil {
			f.Fatalf("Decrypt: %v", err)
		}
		f.Add(plain)
	}
	const fanout = 64 // Config.Fanout's default, which seedImage's store runs at
	f.Fuzz(func(t *testing.T, data []byte) {
		var n *mapNode
		var err error
		boundedAlloc(t, len(data), func() { n, err = deserializeMapNode(data, fanout) })
		if err != nil {
			if !errors.Is(err, ErrTampered) {
				t.Fatalf("deserializeMapNode: %v does not wrap ErrTampered", err)
			}
			return
		}
		if n.level != int(data[0]) || len(n.entries) != fanout {
			t.Fatalf("decoded level %d with %d slots from level %d at fanout %d", n.level, len(n.entries), data[0], fanout)
		}
		enc := n.serialize()
		again, err := deserializeMapNode(enc, fanout)
		if err != nil || !bytes.Equal(again.serialize(), enc) {
			t.Fatalf("a decoded node's serialization does not round-trip: %v", err)
		}
	})
}

// FuzzDecodeCkptPayload holds the checkpoint payload decoder to the same
// contract: whatever plaintext a checkpoint record in whatever segment
// decrypts to, decoding it succeeds or fails with an error wrapping
// ErrTampered, with bounded allocation and never a panic. A payload that
// decodes lists its node segments strictly ascending and below the
// checkpoint's segment. The seeds are
// the payloads of a real log's checkpoint records, with their segments.
func FuzzDecodeCkptPayload(f *testing.F) {
	recs, suite := logRecords(f)
	if recs[recCheckpoint] == nil {
		f.Fatal("the seed log holds no checkpoint record")
	}
	for _, rec := range recs[recCheckpoint] {
		_, ciphertext, err := parseCheckpointRecord(rec.img[recordHeaderSize:])
		if err != nil {
			f.Fatalf("parseCheckpointRecord: %v", err)
		}
		plain, err := suite.Decrypt(ciphertext)
		if err != nil {
			f.Fatalf("Decrypt: %v", err)
		}
		if _, err := decodeCkptPayload(plain, rec.seg); err != nil {
			f.Fatalf("decodeCkptPayload of a real checkpoint: %v", err)
		}
		f.Add(plain, rec.seg)
	}
	f.Fuzz(func(t *testing.T, data []byte, seg uint64) {
		var p ckptPayload
		var err error
		boundedAlloc(t, len(data), func() { p, err = decodeCkptPayload(data, seg) })
		if err != nil {
			if !errors.Is(err, ErrTampered) {
				t.Fatalf("decodeCkptPayload: %v does not wrap ErrTampered", err)
			}
			return
		}
		for i, num := range p.nodeSegs {
			if num >= seg || (i > 0 && num <= p.nodeSegs[i-1]) {
				t.Fatalf("decoded node segments %v for a checkpoint in segment %d", p.nodeSegs, seg)
			}
		}
	})
}

// FuzzDecodeSuperSlot holds the superblock slot decoder to the contract:
// whatever bytes a slot holds, decoding it returns a superblock or ok ==
// false, with bounded allocation and never a panic. The seeds are both
// slots of a real superblock file.
func FuzzDecodeSuperSlot(f *testing.F) {
	snap, suite := seedImage(f)
	sb := snap[superblockName]
	if len(sb) != 2*superSlotSize {
		f.Fatalf("the seed superblock is %d bytes, want %d", len(sb), 2*superSlotSize)
	}
	f.Add(sb[:superSlotSize])
	f.Add(sb[superSlotSize:])
	f.Fuzz(func(t *testing.T, slot []byte) {
		boundedAlloc(t, len(slot), func() { decodeSuperSlot(slot, suite) })
	})
}
