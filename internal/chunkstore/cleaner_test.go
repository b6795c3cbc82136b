package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// churn overwrites random chunks for many rounds, generating garbage for
// the cleaner. It returns the store's disk size after each round's commit.
func churn(t *testing.T, s *Store, ids []ChunkID, rounds int, rng *rand.Rand) []int64 {
	t.Helper()
	disk := make([]int64, 0, rounds)
	for r := 0; r < rounds; r++ {
		b := s.NewBatch()
		for k := 0; k < 4; k++ {
			cid := ids[rng.Intn(len(ids))]
			b.Write(cid, bytes.Repeat([]byte{byte(r), byte(k)}, 100))
		}
		if err := s.Commit(b, true); err != nil {
			t.Fatalf("churn round %d: %v", r, err)
		}
		disk = append(disk, s.Stats().DiskBytes)
	}
	return disk
}

func TestCleanerBoundsDatabaseSize(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.MaxUtilization = 0.5
	s := env.open(t)
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	var ids []ChunkID
	for i := 0; i < 40; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 100)))
	}
	churn(t, s, ids, 400, rng)
	st := s.Stats()
	if st.Cleanings == 0 {
		t.Fatal("cleaner never ran despite heavy churn")
	}
	// Utilization-bound check: disk size stays under the cleaning trigger
	// (target plus hysteresis slack) with one segment of headroom.
	s.mu.Lock()
	bound := s.cleanTriggerBytes() + int64(env.cfg.SegmentSize)
	s.mu.Unlock()
	if st.DiskBytes > bound {
		t.Fatalf("disk %d exceeds bound %d (live %d)", st.DiskBytes, bound, st.LiveBytes)
	}
	// Data integrity after cleaning.
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify after cleaning: %v", err)
	}
}

func TestCleanerPreservesDataAcrossReopen(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.MaxUtilization = 0.6
	s := env.open(t)
	rng := rand.New(rand.NewSource(11))
	var ids []ChunkID
	for i := 0; i < 30; i++ {
		ids = append(ids, allocWrite(t, s, []byte(fmt.Sprintf("stable-%d", i))))
	}
	// Churn a disjoint set of chunks so the stable ones get relocated by the
	// cleaner rather than rewritten.
	var hot []ChunkID
	for i := 0; i < 10; i++ {
		hot = append(hot, allocWrite(t, s, []byte("hot")))
	}
	churn(t, s, hot, 300, rng)
	if st := s.Stats(); st.Cleanings == 0 {
		t.Fatal("cleaner never ran")
	}
	for i, cid := range ids {
		got, err := s.Read(cid)
		if err != nil || string(got) != fmt.Sprintf("stable-%d", i) {
			t.Fatalf("Read(%d) after cleaning: %q, %v", cid, got, err)
		}
	}
	s.Close()
	env.mem.Crash() // also exercise recovery over a heavily cleaned log
	s2 := env.open(t)
	defer s2.Close()
	for i, cid := range ids {
		got, err := s2.Read(cid)
		if err != nil || string(got) != fmt.Sprintf("stable-%d", i) {
			t.Fatalf("Read(%d) after reopen: %q, %v", cid, got, err)
		}
	}
}

func TestHigherUtilizationYieldsSmallerDatabase(t *testing.T) {
	// Reproduces the mechanism behind Figure 11 (right): the database size
	// decreases as max utilization increases. The size is a sawtooth between
	// cleaning cycles, so one reading lands wherever the teeth stop; the
	// property is asserted on the mean and the maximum over every commit of
	// the churn, as the repository benchmark samples space_amp.
	type size struct{ mean, max int64 }
	sizes := map[float64]size{}
	for _, util := range []float64{0.5, 0.9} {
		env := newTestEnv(t, "null")
		env.cfg.SegmentSize = 4 << 10
		env.cfg.MaxUtilization = util
		s := env.open(t)
		rng := rand.New(rand.NewSource(3))
		var ids []ChunkID
		for i := 0; i < 40; i++ {
			ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 100)))
		}
		var sz size
		disk := churn(t, s, ids, 300, rng)
		for _, d := range disk {
			sz.mean += d
			sz.max = max(sz.max, d)
		}
		sz.mean /= int64(len(disk))
		sizes[util] = sz
		s.Close()
	}
	t.Logf("disk bytes over the churn: util 0.5 mean %d max %d; util 0.9 mean %d max %d",
		sizes[0.5].mean, sizes[0.5].max, sizes[0.9].mean, sizes[0.9].max)
	if sizes[0.9].mean >= sizes[0.5].mean {
		t.Errorf("mean size at util 0.9 (%d) should be below mean size at util 0.5 (%d)", sizes[0.9].mean, sizes[0.5].mean)
	}
	if sizes[0.9].max >= sizes[0.5].max {
		t.Errorf("max size at util 0.9 (%d) should be below max size at util 0.5 (%d)", sizes[0.9].max, sizes[0.5].max)
	}
}

func TestCleanerWriteAmplificationGrowsWithUtilization(t *testing.T) {
	// Reproduces the mechanism behind Figure 11 (left): cleaning work per
	// commit rises steeply at high utilization.
	copied := map[float64]int64{}
	for _, util := range []float64{0.5, 0.9} {
		env := newTestEnv(t, "null")
		env.cfg.SegmentSize = 4 << 10
		env.cfg.MaxUtilization = util
		s := env.open(t)
		rng := rand.New(rand.NewSource(5))
		var ids []ChunkID
		for i := 0; i < 40; i++ {
			ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 100)))
		}
		churn(t, s, ids, 300, rng)
		copied[util] = s.Stats().CleanedBytes
		s.Close()
	}
	if copied[0.9] <= copied[0.5] {
		t.Fatalf("cleaned bytes at util 0.9 (%d) should exceed util 0.5 (%d)", copied[0.9], copied[0.5])
	}
}

func TestExplicitCleanReclaimsGarbage(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.DisableAutoClean = true
	env.cfg.MaxUtilization = 0.8
	s := env.open(t)
	defer s.Close()
	rng := rand.New(rand.NewSource(13))
	var ids []ChunkID
	for i := 0; i < 40; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 100)))
	}
	churn(t, s, ids, 200, rng)
	before := s.Stats()
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	after := s.Stats()
	if after.DiskBytes >= before.DiskBytes {
		t.Fatalf("idle clean did not shrink the database: %d -> %d", before.DiskBytes, after.DiskBytes)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestDeallocatedSpaceIsReclaimed(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.MaxUtilization = 0.7
	s := env.open(t)
	defer s.Close()
	var ids []ChunkID
	for i := 0; i < 200; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{1}, 200)))
	}
	grown := s.Stats().DiskBytes
	b := s.NewBatch()
	for _, cid := range ids[:180] {
		b.Deallocate(cid)
	}
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("dealloc commit: %v", err)
	}
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	shrunk := s.Stats().DiskBytes
	if shrunk >= grown/2 {
		t.Fatalf("deallocation did not reclaim space: %d -> %d", grown, shrunk)
	}
	for _, cid := range ids[180:] {
		if _, err := s.Read(cid); err != nil {
			t.Fatalf("survivor chunk %d: %v", cid, err)
		}
	}
}

// TestDamagedSegmentMovesLeafUnderEvictedParent pins the map-node half of
// cleaning a segment whose byte walk is broken: a live leaf stored there
// under an inner node that is stored elsewhere and evicted must still be
// found and moved, so the segment is freed once a checkpoint has published
// the leaf's new location.
func TestDamagedSegmentMovesLeafUnderEvictedParent(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	env.cfg.Fanout = 4
	env.cfg.SegmentSize = 4 << 10
	env.cfg.CacheBytes = 2 << 10
	env.cfg.DisableAutoClean = true
	s := env.open(t)
	defer s.Close()

	var ids []ChunkID
	for i := 0; i < 64; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 100)))
	}
	// Empty the second leaf, so that no chunk relocation can dirty it:
	// only the damaged-segment walk can find it.
	kept := ids[4]
	b := s.NewBatch()
	for _, cid := range ids {
		if cid/4 == kept/4 {
			b.Deallocate(cid)
		}
	}
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit(deallocate): %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Rewrite every chunk outside that leaf and checkpoint again: every map
	// node but the leaf moves to later segments.
	var live []ChunkID
	for _, cid := range ids {
		if cid/4 != kept/4 {
			writeChunk(t, s, cid, bytes.Repeat([]byte("w"), 100))
			live = append(live, cid)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	s.mu.Lock()
	p, err := s.lm.descend(kept, 0, readPath)
	if err != nil || p.node == nil {
		s.mu.Unlock()
		t.Fatalf("descend(%d): %v", kept, err)
	}
	leaf := p.node
	parent := s.lm.findParent(leaf)
	if parent == nil {
		s.mu.Unlock()
		t.Fatalf("leaf of chunk %d has no parent", kept)
	}
	// Evict the leaf, then its parent, from the now-clean map: sweep with
	// a zero budget until the parent is out.
	budget := s.lm.budget
	s.lm.budget = 0
	for i := 0; s.lm.resident(parent); i++ {
		if i == 8 {
			s.mu.Unlock()
			t.Fatal("the leaf's parent never evicted; test setup rotted")
		}
		s.lm.sweep(nil)
	}
	s.lm.budget = budget
	num := leaf.loc.Seg
	seg := s.segs.segs[num]
	var first Location
	_, err = s.scanLog(position{seg: num, off: segHeaderSize}, func(loc Location, _ byte, _ []byte) (bool, error) {
		first = loc
		return false, nil
	})
	premise := parent.loc.Seg != num && seg.live == int64(leaf.loc.Len) && first.Off < leaf.loc.Off
	s.mu.Unlock()
	if err != nil || !premise {
		t.Fatalf("test premise: leaf %v, parent in segment %d, segment %d live %d, first record %v (%v)",
			leaf.loc, parent.loc.Seg, num, seg.live, first, err)
	}
	// Break the segment's byte walk at its first record, a dead one.
	if err := env.fs.FlipBit(segmentName(num), int64(first.Off)+int64(first.Len)/2, 3); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}

	if err := errors.Join(s.Clean(), s.Checkpoint(), s.Clean()); err != nil {
		t.Fatalf("Clean, Checkpoint, Clean: %v", err)
	}
	s.mu.RLock()
	_, held := s.segs.segs[num]
	s.mu.RUnlock()
	if held {
		t.Fatalf("damaged segment %d not freed: its leaf was never moved", num)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	s.Close()
	s2 := env.open(t)
	defer s2.Close()
	for _, cid := range live {
		wantRead(t, s2, cid, strings.Repeat("w", 100))
	}
}
