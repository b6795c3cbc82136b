package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestRandomOpsAgainstModel drives the store with long random operation
// sequences — allocate, write, overwrite, deallocate, durable/nondurable
// commits, reopen, crash, snapshot bookkeeping — and cross-checks every
// read against a plain in-memory model.
func TestRandomOpsAgainstModel(t *testing.T) {
	// Seed 6 has a cleaning cycle's publishing commit promote nondurable
	// state with no checkpoint in the step.
	for _, seed := range []int64{1, 2, 3, 4, 6} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runModelWorkload(t, seed, 600)
		})
	}
}

func runModelWorkload(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	env := newTestEnv(t, "null")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.MaxUtilization = 0.6

	s := env.open(t)
	defer func() { s.Close() }()

	committed := map[ChunkID][]byte{} // durably committed state
	pending := map[ChunkID][]byte{}   // nondurably committed on top
	allocated := map[ChunkID]bool{}   // ids allocated but possibly unwritten

	applyPending := func() {
		for cid, v := range pending {
			if v == nil {
				delete(committed, cid)
			} else {
				committed[cid] = v
			}
		}
		pending = map[ChunkID][]byte{}
	}
	currentVal := func(cid ChunkID) ([]byte, bool) {
		if v, ok := pending[cid]; ok {
			if v == nil {
				return nil, false
			}
			return v, true
		}
		v, ok := committed[cid]
		return v, ok
	}
	liveIDs := func() []ChunkID {
		var out []ChunkID
		for cid := range committed {
			if v, ok := pending[cid]; ok && v == nil {
				continue
			}
			out = append(out, cid)
		}
		for cid, v := range pending {
			if v != nil {
				if _, already := committed[cid]; !already {
					out = append(out, cid)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 45: // commit a random batch of writes/deallocs
			b := s.NewBatch()
			staged := map[ChunkID][]byte{}
			n := 1 + rng.Intn(5)
			for i := 0; i < n; i++ {
				if rng.Intn(4) == 0 && len(liveIDs()) > 0 {
					ids := liveIDs()
					cid := ids[rng.Intn(len(ids))]
					if _, dup := staged[cid]; dup {
						continue
					}
					b.Deallocate(cid)
					staged[cid] = nil
					continue
				}
				var cid ChunkID
				if rng.Intn(3) == 0 {
					var err error
					cid, err = s.AllocateChunkID()
					if err != nil {
						t.Fatalf("step %d: Allocate: %v", step, err)
					}
					allocated[cid] = true
				} else if ids := liveIDs(); len(ids) > 0 {
					cid = ids[rng.Intn(len(ids))]
				} else {
					var err error
					cid, err = s.AllocateChunkID()
					if err != nil {
						t.Fatalf("step %d: Allocate: %v", step, err)
					}
					allocated[cid] = true
				}
				if _, dup := staged[cid]; dup {
					continue
				}
				val := make([]byte, rng.Intn(300))
				rng.Read(val)
				b.Write(cid, val)
				staged[cid] = val
			}
			durable := rng.Intn(3) > 0
			// own is the sequence number of the batch's own commit record (an
			// empty nondurable batch appends none). Any record after it is
			// post-commit maintenance — a checkpoint or a cleaning cycle's
			// publishing commit — which is durable and promotes nondurable
			// state.
			own := s.Stats().CommitSeq
			if b.Len() > 0 || durable {
				own++
			}
			if err := s.Commit(b, durable); err != nil {
				t.Fatalf("step %d: Commit: %v", step, err)
			}
			for cid, v := range staged {
				pending[cid] = v
				delete(allocated, cid)
			}
			if durable || s.Stats().CommitSeq > own {
				applyPending()
			}
		case op < 75: // read a random chunk and compare with the model
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			cid := ids[rng.Intn(len(ids))]
			want, _ := currentVal(cid)
			got, err := s.Read(cid)
			if err != nil {
				t.Fatalf("step %d: Read(%d): %v", step, cid, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: Read(%d) mismatch: %d vs %d bytes", step, cid, len(got), len(want))
			}
		case op < 80: // read a deallocated/unknown id
			cid := ChunkID(1 + rng.Intn(2000))
			if _, live := currentVal(cid); live {
				continue
			}
			if allocated[cid] {
				continue
			}
			if _, err := s.Read(cid); err == nil {
				t.Fatalf("step %d: Read(%d) of dead id succeeded", step, cid)
			} else if errors.Is(err, ErrTampered) {
				t.Fatalf("step %d: Read(%d) of dead id reported tampering: %v", step, cid, err)
			}
		case op < 90: // clean reopen
			if err := s.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			applyPending() // close checkpoint promotes nondurable state
			allocated = map[ChunkID]bool{}
			s = env.open(t)
		default: // crash and recover
			env.mem.Crash()
			pending = map[ChunkID][]byte{}
			allocated = map[ChunkID]bool{}
			s = env.open(t)
		}
	}
	// Final audit.
	if err := s.Verify(); err != nil {
		t.Fatalf("final Verify: %v", err)
	}
	for cid := range committed {
		if v, ok := pending[cid]; ok && v == nil {
			continue
		}
		want, _ := currentVal(cid)
		got, err := s.Read(cid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("final Read(%d): err=%v", cid, err)
		}
	}
}

func TestRecordEncodingRoundTrip(t *testing.T) {
	body := []byte("record body bytes")
	rec := encodeRecord(recWrite, body)
	typ, bodyLen, err := decodeRecordHeader(rec)
	if err != nil || typ != recWrite || int(bodyLen) != len(body) {
		t.Fatalf("header: typ=%d len=%d err=%v", typ, bodyLen, err)
	}
	if !checkRecordCRC(rec) {
		t.Fatal("CRC of fresh record invalid")
	}
	for i := range rec {
		mod := append([]byte(nil), rec...)
		mod[i] ^= 0x40
		if checkRecordCRC(mod) {
			t.Fatalf("CRC accepted flip at byte %d", i)
		}
	}
}

func TestCommitRecordRoundTrip(t *testing.T) {
	signed := commitSignedPortion(42, true, 7, []byte("roothashroothash1234"))
	body := commitRecordBody(signed, []byte("mac-mac-mac-mac-mac-"))
	cr, gotSigned, err := parseCommitRecord(body)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cr.seq != 42 || !cr.durable || cr.counter != 7 {
		t.Fatalf("decoded: %+v", cr)
	}
	if string(cr.rootHash) != "roothashroothash1234" || string(cr.mac) != "mac-mac-mac-mac-mac-" {
		t.Fatalf("decoded hash/mac: %q %q", cr.rootHash, cr.mac)
	}
	if !bytes.Equal(gotSigned, signed) {
		t.Fatal("signed portion mismatch")
	}
	// Truncations must error, not panic.
	for n := 0; n < len(body); n++ {
		parseCommitRecord(body[:n])
	}
}

func TestMapNodeSerializationRoundTrip(t *testing.T) {
	n := newMapNode(2, 9, 64)
	n.entries[0] = entry{loc: Location{Seg: 3, Off: 100, Len: 50}, hash: []byte("h0h0h0h0")}
	n.entries[17] = entry{loc: Location{Seg: 8, Off: 9999, Len: 1}, hash: []byte("xyzw1234")}
	n.entries[63] = entry{loc: Location{}, hash: []byte("nolocentry")}
	data := n.serialize()
	got, err := deserializeMapNode(data, 64)
	if err != nil {
		t.Fatalf("deserialize: %v", err)
	}
	if got.level != 2 || got.index != 9 {
		t.Fatalf("position: (%d,%d)", got.level, got.index)
	}
	for i := range n.entries {
		a, b := n.entries[i], got.entries[i]
		if a.loc != b.loc || !bytes.Equal(a.hash, b.hash) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	// Deterministic.
	if !bytes.Equal(data, got.serialize()) {
		t.Fatal("serialization not canonical")
	}
	// Corrupted serializations error out.
	if _, err := deserializeMapNode(data[:5], 64); err == nil {
		t.Fatal("short node accepted")
	}
	if _, err := deserializeMapNode(append(data, 0), 64); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestAllocatorSerializationRoundTrip(t *testing.T) {
	a := newAllocator()
	var ids []ChunkID
	for i := 0; i < 10; i++ {
		ids = append(ids, a.allocate())
	}
	a.release(ids[3])
	a.release(ids[7])
	data := a.serialize()
	got, n, err := deserializeAllocator(data)
	if err != nil || n != len(data) {
		t.Fatalf("deserialize: n=%d err=%v", n, err)
	}
	if got.nextID != a.nextID {
		t.Fatalf("nextID: %d vs %d", got.nextID, a.nextID)
	}
	// Allocation order must be reproduced exactly (LIFO of free list).
	for i := 0; i < 5; i++ {
		x, y := a.allocate(), got.allocate()
		if x != y {
			t.Fatalf("allocation diverged at %d: %d vs %d", i, x, y)
		}
	}
	if _, _, err := deserializeAllocator([]byte{1, 2}); err == nil {
		t.Fatal("short allocator state accepted")
	}
}

func TestAllocatorStaleFreeListEntries(t *testing.T) {
	a := newAllocator()
	id := a.allocate()
	a.release(id)
	a.noteWritten(id) // replay observed a write: id is taken again
	if got := a.allocate(); got == id {
		t.Fatalf("allocator handed out id %d that replay marked written", id)
	}
}

func TestLocationMapGrowth(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.Fanout = 4 // tiny fanout forces deep trees
	s := env.open(t)
	defer s.Close()
	want := map[ChunkID][]byte{}
	for i := 0; i < 300; i++ {
		v := []byte(fmt.Sprintf("deep-%d", i))
		want[allocWrite(t, s, v)] = v
	}
	if s.lm.height < 3 {
		t.Fatalf("tree height %d, expected deep tree with fanout 4", s.lm.height)
	}
	for cid, v := range want {
		got, err := s.Read(cid)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Read(%d): %v", cid, err)
		}
	}
	// And across a reopen.
	s.Close()
	s2 := env.open(t)
	defer s2.Close()
	for cid, v := range want {
		got, err := s2.Read(cid)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Read(%d) after reopen: %v", cid, err)
		}
	}
}

func TestMapNodeCacheEviction(t *testing.T) {
	env := newTestEnv(t, "null")
	// Tiny budget: force constant node eviction and reloading.
	env.cfg.CacheBytes = tinyCacheBytes
	s := env.open(t)
	defer s.Close()
	want := map[ChunkID][]byte{}
	for i := 0; i < 500; i++ {
		v := []byte(fmt.Sprintf("evict-%d", i))
		want[allocWrite(t, s, v)] = v
	}
	for cid, v := range want {
		got, err := s.Read(cid)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Read(%d) under cache pressure: %v", cid, err)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
