package chunkstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"sync"
	"testing"

	"tdb/internal/sec"
)

// Under the default suite a chunk's Merkle leaf is its ciphertext's GMAC
// digest (sec.Suite.Digest), and Hash is left to map nodes and the round
// chain. These tests pin that split and hold the digest to the tamper
// contract the leaf hash met.

// hashCountingSuite wraps a suite and counts its Hash calls, both in all
// and over bytes its Encrypt produced, and its Digest calls.
type hashCountingSuite struct {
	sec.Suite
	mu          sync.Mutex
	ciphertexts map[string]bool
	hashes      int // every Hash call
	ctHashes    int // Hash calls over a ciphertext
	digests     int
}

func (c *hashCountingSuite) Encrypt(plaintext []byte, iv uint64) ([]byte, error) {
	ct, err := c.Suite.Encrypt(plaintext, iv)
	c.mu.Lock()
	c.ciphertexts[string(ct)] = true
	c.mu.Unlock()
	return ct, err
}

func (c *hashCountingSuite) Hash(data []byte) []byte {
	c.mu.Lock()
	c.hashes++
	if c.ciphertexts[string(data)] {
		c.ctHashes++
	}
	c.mu.Unlock()
	return c.Suite.Hash(data)
}

func (c *hashCountingSuite) Digest(dst, ciphertext []byte) []byte {
	c.mu.Lock()
	c.digests++
	c.mu.Unlock()
	return c.Suite.Digest(dst, ciphertext)
}

// take returns the counts since the last take and zeroes them.
func (c *hashCountingSuite) take() (hashes, ctHashes, digests int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hashes, ctHashes, digests = c.hashes, c.ctHashes, c.digests
	c.hashes, c.ctHashes, c.digests = 0, 0, 0
	return hashes, ctHashes, digests
}

// TestChunkPathsDigestWithoutHash checks that under the default suite no
// chunk ciphertext is ever hashed: a commit of n chunks digests each once
// (its Hash calls are the map nodes' and the round chain's, over no
// ciphertext), and a 64-chunk ReadBatch and a point Read with their map
// nodes resident digest each chunk once and call Hash not at all. A cold
// Read after a reopen, which faults its map node in, hashes no ciphertext.
func TestChunkPathsDigestWithoutHash(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-gmac")
	cs := &hashCountingSuite{Suite: env.suite, ciphertexts: make(map[string]bool)}
	env.cfg.Suite = cs
	env.cfg.SegmentSize = 1 << 20
	s := env.open(t)

	const n = 64
	cs.take()
	cids := writeBatch(t, s, n, true, kibPayload)
	if _, ctHashes, digests := cs.take(); ctHashes != 0 || digests != n {
		t.Fatalf("a commit of %d chunks hashed %d ciphertexts and digested %d, want 0 and %d", n, ctHashes, digests, n)
	}

	for i, r := range s.ReadBatch(cids) {
		if r.Err != nil || !bytes.Equal(r.Data, kibPayload(i)) {
			t.Fatalf("ReadBatch[%d]: %d bytes, %v", i, len(r.Data), r.Err)
		}
	}
	if hashes, _, digests := cs.take(); hashes != 0 || digests != n {
		t.Fatalf("a %d-chunk ReadBatch called Hash %d times and Digest %d times, want 0 and %d", n, hashes, digests, n)
	}
	if got, err := s.Read(cids[7]); err != nil || !bytes.Equal(got, kibPayload(7)) {
		t.Fatalf("Read: %d bytes, %v", len(got), err)
	}
	if hashes, _, digests := cs.take(); hashes != 0 || digests != 1 {
		t.Fatalf("a point Read called Hash %d times and Digest %d times, want 0 and 1", hashes, digests)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s = env.open(t)
	defer s.Close()
	cs.take()
	if got, err := s.Read(cids[9]); err != nil || !bytes.Equal(got, kibPayload(9)) {
		t.Fatalf("cold Read: %d bytes, %v", len(got), err)
	}
	if _, ctHashes, digests := cs.take(); ctHashes != 0 || digests != 1 {
		t.Fatalf("a cold Read hashed %d ciphertexts and digested %d, want 0 and 1", ctHashes, digests)
	}
}

// chunkTamper is one way to damage a chunk: its stored record or its map
// entry.
type chunkTamper struct {
	name string
	// record rewrites the current record image cur in place, given the
	// image of the chunk's previous version; the caller then recomputes the
	// CRC, as anyone can.
	record func(cur, old []byte)
	// entry damages the chunk's map entry in memory.
	entry func(e entry) entry
}

var chunkTampers = []chunkTamper{
	{name: "header byte", record: func(cur, _ []byte) { cur[recordHeaderSize+8+3] ^= 0x01 }},
	{name: "payload byte", record: func(cur, _ []byte) { cur[len(cur)-5] ^= 0x40 }},
	{name: "older version", record: func(cur, old []byte) { copy(cur, old) }},
	{name: "digest pad byte", entry: func(e entry) entry {
		h := append([]byte(nil), e.hash...)
		h[len(h)-1] ^= 0x01
		return entry{loc: e.loc, hash: h}
	}},
}

// reCRC recomputes a record image's CRC after its bytes changed.
func reCRC(rec []byte) {
	crc := crc32.NewIEEE()
	crc.Write(rec[0:5])
	crc.Write(rec[recordHeaderSize:])
	binary.BigEndian.PutUint32(rec[5:9], crc.Sum32())
}

// TestDigestCatchesChunkTampering damages one chunk four ways — a flipped
// ciphertext header byte, a flipped payload byte, the chunk's older version
// spliced over its current record (CRC recomputed each time), and a
// non-zero pad byte in its recorded digest — and checks that each fails
// Read, ReadBatch, Verify and Scrub as tampered or degraded, while a
// neighbour in the same batch still reads.
func TestDigestCatchesChunkTampering(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-gmac")
	env.cfg.SegmentSize = 1 << 20
	env.cfg.DisableAutoClean = true
	s := env.open(t)
	cids := writeBatch(t, s, 4, true, kibPayload)
	victim := cids[1]
	s.mu.Lock()
	oldEntry, err := s.lm.get(victim)
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("lm.get: %v", err)
	}
	writeChunk(t, s, victim, kibPayload(9))
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.mu.Lock()
	curEntry, err := s.lm.get(victim)
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("lm.get: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if oldEntry.loc.Len != curEntry.loc.Len {
		t.Fatalf("the two versions' records are %d and %d bytes", oldEntry.loc.Len, curEntry.loc.Len)
	}
	img := env.mem.Snapshot()
	ctr, _ := env.counter.Read()
	record := func(img map[string][]byte, loc Location) []byte {
		seg := img[segmentName(loc.Seg)]
		return seg[loc.Off : loc.Off+loc.Len]
	}

	mustFail := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrTampered) && !errors.Is(err, ErrDegraded) {
			t.Fatalf("%s: %v, want tampered or degraded", what, err)
		}
	}
	ops := []struct {
		name  string
		check func(t *testing.T, s *Store)
	}{
		{"Read", func(t *testing.T, s *Store) {
			_, err := s.Read(victim)
			mustFail(t, "Read", err)
		}},
		{"ReadBatch", func(t *testing.T, s *Store) {
			res := s.ReadBatch([]ChunkID{cids[0], victim})
			if res[0].Err != nil || !bytes.Equal(res[0].Data, kibPayload(0)) {
				t.Fatalf("the victim's neighbour in the batch: %d bytes, %v", len(res[0].Data), res[0].Err)
			}
			mustFail(t, "ReadBatch", res[1].Err)
		}},
		{"Verify", func(t *testing.T, s *Store) { mustFail(t, "Verify", s.Verify()) }},
		{"Scrub", func(t *testing.T, s *Store) {
			rep, err := s.Scrub()
			if err != nil || len(rep.Bad) != 1 || rep.Bad[0].ID != victim {
				t.Fatalf("Scrub: %+v, %v; want chunk %d reported alone", rep, err, victim)
			}
		}},
	}
	for _, tc := range chunkTampers {
		for _, op := range ops {
			t.Run(tc.name+"/"+op.name, func(t *testing.T) {
				damaged := make(map[string][]byte, len(img))
				for name, data := range img {
					damaged[name] = append([]byte(nil), data...)
				}
				if tc.record != nil {
					cur := record(damaged, curEntry.loc)
					tc.record(cur, record(img, oldEntry.loc))
					reCRC(cur)
				}
				env.mem.Restore(damaged)
				env.counter.Set(ctr)
				s := env.open(t)
				defer s.Close()
				if tc.entry != nil {
					s.mu.Lock()
					_, err := s.lm.set(victim, tc.entry(curEntry))
					s.mu.Unlock()
					if err != nil {
						t.Fatalf("lm.set: %v", err)
					}
				}
				op.check(t, s)
			})
		}
	}
}

// sha256LeafSuite is the default suite with SHA-256 Merkle leaves: its
// Digest is its Hash, and it reports the name aes-ctr-sha256, so it writes
// what that suite wrote before chunk digests became GMAC tags, under the
// same keys. The cross-suite tests run it beside the real suites, which
// keeps a keyed AES suite whose leaves are its plain hash covered.
type sha256LeafSuite struct{ sec.Suite }

func (sha256LeafSuite) Name() string { return "aes-ctr-sha256" }

func (s sha256LeafSuite) Digest(dst, ciphertext []byte) []byte {
	return append(dst, s.Hash(ciphertext)...)
}

// TestOpenRefusesRetiredSuite formats a store under aes-ctr-sha256, the
// default suite before chunk digests became GMAC tags, which derives its
// MAC key as the default does, and checks that the default suite refuses
// it at Open as a usage error naming the recorded suite, not as tampering.
func TestOpenRefusesRetiredSuite(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-sha256")
	s := env.open(t)
	allocWrite(t, s, []byte("a usage meter record"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	env.cfg.Suite = newTestSuite(t, "aes-ctr-gmac")
	s, err := Open(env.cfg)
	if err == nil {
		s.Close()
		t.Fatal("the default suite opened a store formatted under aes-ctr-sha256")
	}
	if errors.Is(err, ErrTampered) || !errors.Is(err, ErrUsage) || !strings.Contains(err.Error(), `"aes-ctr-sha256"`) {
		t.Fatalf("Open of an aes-ctr-sha256 store: %v, want a usage error naming the recorded suite", err)
	}
}
