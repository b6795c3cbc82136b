package chunkstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"tdb/internal/sec"
)

// Log record types. Every record is laid out as
//
//	type(1) | bodyLen(4) | crc32(4) | body(bodyLen)
//
// The CRC covers the type byte, the length and the body. It exists only to
// find the valid end of the log after a crash (torn tail): recovery's log
// scan checks it, and nothing else does. A read from a location the map,
// a checkpoint or the superblock names checks the length against that
// location and authenticates the rest against the Merkle leaf, map node
// hash or checkpoint MAC, which covers every byte the CRC does; tampering
// is detected by those and the commit MACs, never by the CRC.
const (
	recWrite      = byte(1) // body: cid(8) | ciphertext
	recDealloc    = byte(2) // body: cid(8)
	recMapNode    = byte(3) // body: level(1) | index(8) | ciphertext
	recCheckpoint = byte(4) // body: macLen(2) | mac | ciphertext(payload)
	recCommit     = byte(5) // body: seq(8) | flags(1) | counter(8) | hashLen(2) | rootHash | macLen(2) | mac
	recSeal       = byte(6) // body: stamp(8) | count(4) | mac
)

// commit record flags.
const commitDurable = byte(1)

// recordHeaderSize is the fixed per-record header: type, body length, CRC.
// Together with the 8-byte chunk id of a write record this gives the ~17
// bytes of per-chunk log overhead the paper reports as "about 20 bytes
// without crypto" (§4.2.1).
const recordHeaderSize = 1 + 4 + 4

// encodeRecord serializes a record of the given type with body. The CRC
// covers the type, the length field, and the body.
func encodeRecord(typ byte, body []byte) []byte {
	out := make([]byte, recordHeaderSize+len(body))
	out[0] = typ
	binary.BigEndian.PutUint32(out[1:5], uint32(len(body)))
	crc := crc32.NewIEEE()
	crc.Write(out[0:5])
	crc.Write(body)
	binary.BigEndian.PutUint32(out[5:9], crc.Sum32())
	copy(out[recordHeaderSize:], body)
	return out
}

// decodeRecordHeader parses a record header, returning (type, bodyLen).
func decodeRecordHeader(hdr []byte) (byte, uint32, error) {
	if len(hdr) < recordHeaderSize {
		return 0, 0, fmt.Errorf("%w: short record header (%d bytes)", ErrTampered, len(hdr))
	}
	return hdr[0], binary.BigEndian.Uint32(hdr[1:5]), nil
}

// checkRecordCRC validates the CRC of a full record buffer: recovery's
// test for the end of the log.
func checkRecordCRC(rec []byte) bool {
	if len(rec) < recordHeaderSize {
		return false
	}
	want := binary.BigEndian.Uint32(rec[5:9])
	crc := crc32.NewIEEE()
	crc.Write(rec[0:5])
	crc.Write(rec[recordHeaderSize:])
	return crc.Sum32() == want
}

// writeRecordBody builds the body of a chunk-write record.
func writeRecordBody(cid ChunkID, ciphertext []byte) []byte {
	body := make([]byte, 8+len(ciphertext))
	binary.BigEndian.PutUint64(body[:8], uint64(cid))
	copy(body[8:], ciphertext)
	return body
}

// parseWriteRecord splits a write-record body.
func parseWriteRecord(body []byte) (ChunkID, []byte, error) {
	if len(body) < 8 {
		return 0, nil, fmt.Errorf("%w: short write record body (%d bytes)", ErrTampered, len(body))
	}
	return ChunkID(binary.BigEndian.Uint64(body[:8])), body[8:], nil
}

// deallocRecordBody builds the body of a deallocate record.
func deallocRecordBody(cid ChunkID) []byte {
	body := make([]byte, 8)
	binary.BigEndian.PutUint64(body, uint64(cid))
	return body
}

// parseDeallocRecord splits a deallocate-record body.
func parseDeallocRecord(body []byte) (ChunkID, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("%w: bad dealloc record body (%d bytes)", ErrTampered, len(body))
	}
	return ChunkID(binary.BigEndian.Uint64(body)), nil
}

// mapNodeRecordBody builds the body of a map-node record.
func mapNodeRecordBody(level int, index uint64, ciphertext []byte) []byte {
	body := make([]byte, 1+8+len(ciphertext))
	body[0] = byte(level)
	binary.BigEndian.PutUint64(body[1:9], index)
	copy(body[9:], ciphertext)
	return body
}

// parseMapNodeRecord splits a map-node record body.
func parseMapNodeRecord(body []byte) (level int, index uint64, ciphertext []byte, err error) {
	if len(body) < 9 {
		return 0, 0, nil, fmt.Errorf("%w: short map node record body (%d bytes)", ErrTampered, len(body))
	}
	return int(body[0]), binary.BigEndian.Uint64(body[1:9]), body[9:], nil
}

// checkpointRecordBody wraps an encrypted checkpoint payload with its MAC.
func checkpointRecordBody(mac, ciphertext []byte) []byte {
	body := make([]byte, 2+len(mac)+len(ciphertext))
	binary.BigEndian.PutUint16(body[:2], uint16(len(mac)))
	copy(body[2:], mac)
	copy(body[2+len(mac):], ciphertext)
	return body
}

// parseCheckpointRecord splits a checkpoint-record body.
func parseCheckpointRecord(body []byte) (mac, ciphertext []byte, err error) {
	if len(body) < 2 {
		return nil, nil, fmt.Errorf("%w: short checkpoint record body", ErrTampered)
	}
	n := int(binary.BigEndian.Uint16(body[:2]))
	if len(body) < 2+n {
		return nil, nil, fmt.Errorf("%w: truncated checkpoint record MAC", ErrTampered)
	}
	return body[2 : 2+n], body[2+n:], nil
}

// commitRecord is the decoded form of a commit record.
type commitRecord struct {
	seq      uint64
	durable  bool
	counter  uint64
	rootHash []byte
	mac      []byte
}

// commitSignedPortion serializes the MAC-covered prefix of a commit record
// body.
func commitSignedPortion(seq uint64, durable bool, counter uint64, rootHash []byte) []byte {
	out := make([]byte, 8+1+8+2+len(rootHash))
	binary.BigEndian.PutUint64(out[0:8], seq)
	if durable {
		out[8] = commitDurable
	}
	binary.BigEndian.PutUint64(out[9:17], counter)
	binary.BigEndian.PutUint16(out[17:19], uint16(len(rootHash)))
	copy(out[19:], rootHash)
	return out
}

// commitRecordBody appends the MAC to the signed portion.
func commitRecordBody(signed, mac []byte) []byte {
	out := make([]byte, len(signed)+2+len(mac))
	copy(out, signed)
	binary.BigEndian.PutUint16(out[len(signed):], uint16(len(mac)))
	copy(out[len(signed)+2:], mac)
	return out
}

// parseCommitRecord decodes a commit-record body and returns the decoded
// record together with the signed portion (for MAC verification).
func parseCommitRecord(body []byte) (commitRecord, []byte, error) {
	var cr commitRecord
	if len(body) < 19 {
		return cr, nil, fmt.Errorf("%w: short commit record body (%d bytes)", ErrTampered, len(body))
	}
	cr.seq = binary.BigEndian.Uint64(body[0:8])
	cr.durable = body[8]&commitDurable != 0
	cr.counter = binary.BigEndian.Uint64(body[9:17])
	hashLen := int(binary.BigEndian.Uint16(body[17:19]))
	if len(body) < 19+hashLen+2 {
		return cr, nil, fmt.Errorf("%w: truncated commit record root hash", ErrTampered)
	}
	cr.rootHash = body[19 : 19+hashLen]
	macOff := 19 + hashLen
	macLen := int(binary.BigEndian.Uint16(body[macOff : macOff+2]))
	if len(body) < macOff+2+macLen {
		return cr, nil, fmt.Errorf("%w: truncated commit record MAC", ErrTampered)
	}
	cr.mac = body[macOff+2 : macOff+2+macLen]
	return cr, body[:macOff], nil
}

// roundChain accumulates one harden round for its seal record: the stamp its
// durable commit records share, how many of them there are, and a hash chain
// over their MACs. The live store keeps the open round (Store.round), a
// checkpoint carries it, and recovery rebuilds it from the residual log.
type roundChain struct {
	stamp uint64
	count uint32
	chain []byte
}

// add folds in a durable commit record stamped stamp with MAC mac. A new
// stamp starts a new round.
func (r *roundChain) add(suite sec.Suite, stamp uint64, mac []byte) {
	if stamp != r.stamp {
		*r = roundChain{stamp: stamp}
	}
	r.count++
	r.chain = suite.Hash(append(append([]byte(nil), r.chain...), mac...))
}

// signed serializes what the round's seal MAC covers.
func (r *roundChain) signed() []byte {
	out := make([]byte, 0, 12+len(r.chain))
	out = binary.BigEndian.AppendUint64(out, r.stamp)
	out = binary.BigEndian.AppendUint32(out, r.count)
	return append(out, r.chain...)
}

// sealRecordBody builds the round's seal record body. Its 12 bytes plus the
// MAC and the record header make a seal 41 bytes under both keyed suites.
func (r *roundChain) sealRecordBody(suite sec.Suite) []byte {
	body := make([]byte, 12, 12+suite.HashSize())
	binary.BigEndian.PutUint64(body[0:8], r.stamp)
	binary.BigEndian.PutUint32(body[8:12], r.count)
	return append(body, suite.MAC(r.signed())...)
}

// sealedBy reports whether a seal record body seals exactly this round: the
// same stamp, every one of its commit records, and a MAC over their chain.
func (r *roundChain) sealedBy(suite sec.Suite, body []byte) bool {
	if len(body) < 12 || r.count == 0 {
		return false
	}
	stamp := binary.BigEndian.Uint64(body[0:8])
	count := binary.BigEndian.Uint32(body[8:12])
	return stamp == r.stamp && count == r.count && sec.VerifyMAC(suite, r.signed(), body[12:])
}
