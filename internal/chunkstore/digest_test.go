package chunkstore

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"sync"
	"testing"

	"tdb/internal/sec"
)

// Under the default suite a chunk's Merkle leaf is its record's AES-GCM
// tag: a commit seals each chunk (sec.Suite.Seal) and a read opens it
// against its leaf (sec.Suite.Open), one pass each, and Hash is left to map
// nodes and the round chain. These tests pin that split and hold the leaf
// to the tamper contract the leaf hash met.

// hashCountingSuite wraps a suite and counts its Hash calls, both in all
// and over records its Encrypt or Seal produced, and its Seal, Open, Check,
// Decrypt and Digest calls.
type hashCountingSuite struct {
	sec.Suite
	mu          sync.Mutex
	ciphertexts map[string]bool
	hashes      int // every Hash call
	ctHashes    int // Hash calls over a record
	seals       int
	opens       int
	checks      int
	decrypts    int
	digests     int
}

func (c *hashCountingSuite) Encrypt(plaintext []byte, iv uint64) ([]byte, error) {
	ct, err := c.Suite.Encrypt(plaintext, iv)
	c.mu.Lock()
	c.ciphertexts[string(ct)] = true
	c.mu.Unlock()
	return ct, err
}

func (c *hashCountingSuite) Seal(plaintext []byte, iv uint64) ([]byte, []byte, error) {
	ct, leaf, err := c.Suite.Seal(plaintext, iv)
	c.mu.Lock()
	c.seals++
	c.ciphertexts[string(ct)] = true
	c.mu.Unlock()
	return ct, leaf, err
}

func (c *hashCountingSuite) Open(record, leaf []byte) ([]byte, error) {
	c.mu.Lock()
	c.opens++
	c.mu.Unlock()
	return c.Suite.Open(record, leaf)
}

func (c *hashCountingSuite) Check(record, leaf []byte) error {
	c.mu.Lock()
	c.checks++
	c.mu.Unlock()
	return c.Suite.Check(record, leaf)
}

func (c *hashCountingSuite) Decrypt(ciphertext []byte) ([]byte, error) {
	c.mu.Lock()
	c.decrypts++
	c.mu.Unlock()
	return c.Suite.Decrypt(ciphertext)
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

// counts are hashCountingSuite's counts since the last take.
type counts struct{ hashes, ctHashes, seals, opens, checks, decrypts, digests int }

// take returns the counts since the last take and zeroes them.
func (c *hashCountingSuite) take() counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	got := counts{c.hashes, c.ctHashes, c.seals, c.opens, c.checks, c.decrypts, c.digests}
	c.hashes, c.ctHashes, c.seals, c.opens, c.checks, c.decrypts, c.digests = 0, 0, 0, 0, 0, 0, 0
	return got
}

// TestChunkPathsDigestWithoutHash checks that under the default suite no
// chunk record is ever hashed or digested apart: a commit of n chunks seals
// each once (its Hash calls are the map nodes' and the round chain's, over
// no record), and a 64-chunk ReadBatch and a point Read with their map
// nodes resident open each chunk once and call Hash and Digest not at all.
// A cold Read after a reopen, which faults its map node in, hashes no
// record.
func TestChunkPathsDigestWithoutHash(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	cs := &hashCountingSuite{Suite: env.suite, ciphertexts: make(map[string]bool)}
	env.cfg.Suite = cs
	env.cfg.SegmentSize = 1 << 20
	s := env.open(t)

	const n = 64
	cs.take()
	cids := writeBatch(t, s, n, true, kibPayload)
	if got := cs.take(); got.ctHashes != 0 || got.digests != 0 || got.seals != n {
		t.Fatalf("a commit of %d chunks: %+v, want %d seals and no record hashed or digested", n, got, n)
	}

	for i, r := range s.ReadBatch(cids) {
		if r.Err != nil || !bytes.Equal(r.Data, kibPayload(i)) {
			t.Fatalf("ReadBatch[%d]: %d bytes, %v", i, len(r.Data), r.Err)
		}
	}
	if got := cs.take(); got != (counts{opens: n}) {
		t.Fatalf("a %d-chunk ReadBatch: %+v, want %d opens and nothing else", n, got, n)
	}
	if got, err := s.Read(cids[7]); err != nil || !bytes.Equal(got, kibPayload(7)) {
		t.Fatalf("Read: %d bytes, %v", len(got), err)
	}
	if got := cs.take(); got != (counts{opens: 1}) {
		t.Fatalf("a point Read: %+v, want one open and nothing else", got)
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
	if got := cs.take(); got.ctHashes != 0 || got.digests != 0 || got.opens != 1 {
		t.Fatalf("a cold Read: %+v, want one open and no record hashed or digested", got)
	}
}

// TestScrubChecksWithoutDecrypting checks that a Scrub, which keeps each
// record's ciphertext, authenticates every chunk with one Check and
// decrypts nothing at the suite's surface: under 3des-sha1 a Check is the
// leaf's SHA-1 compare alone, so the audit pays no 3DES pass, and under
// aes-gcm it is the one GCM open of a private copy inside the suite.
func TestScrubChecksWithoutDecrypting(t *testing.T) {
	for _, suite := range []string{"3des-sha1", "aes-gcm"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			cs := &hashCountingSuite{Suite: env.suite, ciphertexts: make(map[string]bool)}
			env.cfg.Suite = cs
			env.cfg.SegmentSize = 1 << 20
			s := env.open(t)
			defer s.Close()
			const n = 64
			writeBatch(t, s, n, true, kibPayload)
			cs.take()
			report, err := s.Scrub()
			if err != nil || report.ChunksChecked != n || len(report.Bad) != 0 {
				t.Fatalf("Scrub: %+v, %v; want %d chunks checked, none bad", report, err, n)
			}
			// Hash calls are the map nodes' own links.
			if got := cs.take(); got != (counts{checks: n, hashes: got.hashes}) {
				t.Fatalf("Scrub of %d chunks: %+v; want %d checks and no open, decrypt, seal, digest or record hash", n, got, n)
			}
		})
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
	env := newTestEnv(t, "aes-gcm")
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

// digestLeafSuite is the default suite under another name with a Merkle
// leaf computed apart from decryption, digest(record), which Open checks
// before it decrypts. It models the two retired defaults, whose stores the
// default must refuse by name, and keeps a keyed AES suite whose leaf is
// not its AEAD tag covered beside the real suites: aes-ctr-sha256, whose
// leaf is Hash, and aes-ctr-gmac, whose leaf is a GMAC tag under a second
// key. Only the tests keep them.
type digestLeafSuite struct {
	sec.Suite
	name   string
	digest func(dst, record []byte) []byte
}

func (s digestLeafSuite) Name() string { return s.name }

func (s digestLeafSuite) Digest(dst, record []byte) []byte { return s.digest(dst, record) }

func (s digestLeafSuite) Seal(plaintext []byte, iv uint64) ([]byte, []byte, error) {
	record, err := s.Encrypt(plaintext, iv)
	return record, s.digest(nil, record), err
}

func (s digestLeafSuite) Open(record, leaf []byte) ([]byte, error) {
	if !sec.HashEqual(s.digest(nil, record), leaf) {
		return nil, sec.ErrTampered
	}
	return s.Decrypt(record)
}

func (s digestLeafSuite) Check(record, leaf []byte) error {
	if !sec.HashEqual(s.digest(nil, record), leaf) {
		return sec.ErrTampered
	}
	return nil
}

// retiredSuite returns the model of a retired default over base, the
// default suite under secret.
func retiredSuite(t *testing.T, name string, base sec.Suite, secret []byte) sec.Suite {
	t.Helper()
	if name == "aes-ctr-sha256" {
		return digestLeafSuite{base, name, func(dst, record []byte) []byte { return append(dst, base.Hash(record)...) }}
	}
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte("digest\x00"))
	block, err := aes.NewCipher(mac.Sum(nil)[:16])
	if err != nil {
		t.Fatalf("GMAC key: %v", err)
	}
	gmac, err := cipher.NewGCMWithNonceSize(block, 16)
	if err != nil {
		t.Fatalf("GMAC: %v", err)
	}
	return digestLeafSuite{base, name, func(dst, record []byte) []byte {
		if len(record) < 16 {
			return append(dst, make([]byte, 20)...)
		}
		return append(gmac.Seal(dst, record[:16], nil, record[16:]), 0, 0, 0, 0)
	}}
}

// TestOpenRefusesRetiredSuite formats a store under each retired default —
// aes-ctr-sha256, then aes-ctr-gmac, the default before chunk records were
// sealed with AES-GCM — which derive their MAC key as the default does, and
// checks that the default suite refuses it at Open as a usage error naming
// the recorded suite, not as tampering.
func TestOpenRefusesRetiredSuite(t *testing.T) {
	for _, retired := range []string{"aes-ctr-sha256", "aes-ctr-gmac"} {
		env := newTestEnv(t, retired)
		s := env.open(t)
		allocWrite(t, s, []byte("a usage meter record"))
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		env.cfg.Suite = newTestSuite(t, "aes-gcm")
		s, err := Open(env.cfg)
		if err == nil {
			s.Close()
			t.Fatalf("the default suite opened a store formatted under %s", retired)
		}
		if errors.Is(err, ErrTampered) || !errors.Is(err, ErrUsage) || !strings.Contains(err.Error(), `"`+retired+`"`) {
			t.Fatalf("Open of an %s store: %v, want a usage error naming the recorded suite", retired, err)
		}
	}
}
