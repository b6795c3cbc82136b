package chunkstore

import (
	"encoding/binary"
	"errors"
	"maps"
	"slices"
	"testing"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// logRecords returns the first record image of each type in the log of a
// freshly written store: one committed chunk write, then a checkpoint, so
// the log holds write, commit, round-seal, map-node and checkpoint records.
func logRecords(tb testing.TB) map[byte][]byte {
	tb.Helper()
	suite, err := sec.NewSuite("aes-ctr-sha256", []byte("test-device-secret-0123456789abc"))
	if err != nil {
		tb.Fatalf("NewSuite: %v", err)
	}
	mem := platform.NewMemStore()
	s, err := Open(Config{Store: mem, Counter: platform.NewMemCounter(), Suite: suite})
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	cid, err := s.AllocateChunkID()
	if err != nil {
		tb.Fatalf("AllocateChunkID: %v", err)
	}
	b := s.NewBatch()
	b.Write(cid, []byte("a usage meter record"))
	if err := s.Commit(b, true); err != nil {
		tb.Fatalf("Commit: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		tb.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	snap := mem.Snapshot()
	recs := make(map[byte][]byte)
	for _, name := range slices.Sorted(maps.Keys(snap)) {
		if _, ok := parseSegmentName(name); !ok {
			continue
		}
		img := snap[name]
		for off := segHeaderSize; off+recordHeaderSize <= len(img); {
			typ, n, err := decodeRecordHeader(img[off:])
			end := off + recordHeaderSize + int(n)
			if err != nil || end > len(img) || !checkRecordCRC(img[off:end]) {
				break
			}
			if recs[typ] == nil {
				recs[typ] = img[off:end]
			}
			off = end
		}
	}
	return recs
}

// FuzzParseRecordBytes holds the log's record framing to the hostile-disk
// contract: whatever bytes a segment holds, parsing a record image and then
// splitting its body as a chunk write yields a body of exactly the length
// the header claims, or an error wrapping ErrTampered, and never panics. The
// seeds are a write, a map-node, a commit and a round-seal record from a
// real log.
func FuzzParseRecordBytes(f *testing.F) {
	recs := logRecords(f)
	for _, typ := range []byte{recWrite, recMapNode, recCommit, recSeal} {
		if recs[typ] == nil {
			f.Fatalf("the seed log holds no record of type %d", typ)
		}
		f.Add(recs[typ])
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		typ, body, err := parseRecordBytes(Location{Len: uint32(len(buf))}, buf)
		if err != nil {
			if !errors.Is(err, ErrTampered) {
				t.Fatalf("parseRecordBytes: %v does not wrap ErrTampered", err)
			}
			return
		}
		if n := binary.BigEndian.Uint32(buf[1:5]); typ != buf[0] || len(body) != int(n) {
			t.Fatalf("parsed type %d with a %d-byte body; the header says type %d, %d bytes", typ, len(body), buf[0], n)
		}
		cid, ciphertext, err := parseWriteRecord(body)
		if err != nil {
			if !errors.Is(err, ErrTampered) {
				t.Fatalf("parseWriteRecord: %v does not wrap ErrTampered", err)
			}
			return
		}
		if cid != ChunkID(binary.BigEndian.Uint64(body)) || len(ciphertext) != len(body)-8 {
			t.Fatalf("a %d-byte write body split into chunk %d and %d bytes", len(body), cid, len(ciphertext))
		}
	})
}
