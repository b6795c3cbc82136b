package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tdb/internal/sec"
)

// chunkLoc looks up the stored location and expected hash of a chunk.
func chunkLoc(t *testing.T, s *Store, cid ChunkID) entry {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lm.get(cid)
	if err != nil {
		t.Fatalf("locating chunk %d: %v", cid, err)
	}
	if e.isEmpty() {
		t.Fatalf("chunk %d has no stored location", cid)
	}
	return e
}

// rotChunk flips one bit inside the stored ciphertext of cid.
func rotChunk(t *testing.T, env *testEnv, s *Store, cid ChunkID) {
	t.Helper()
	e := chunkLoc(t, s, cid)
	// Aim past the record header and write-record framing, into ciphertext.
	off := int64(e.loc.Off) + int64(e.loc.Len)/2
	if err := env.fs.FlipBit(segmentName(e.loc.Seg), off, 5); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
}

func TestScrubCleanStore(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	defer s.Close()
	for i := 0; i < 20; i++ {
		allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 100+i))
	}
	report, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if !report.Clean() {
		t.Fatalf("clean store scrubs dirty: %+v", report)
	}
	if report.ChunksChecked != 20 {
		t.Fatalf("scrub checked %d chunks, want 20", report.ChunksChecked)
	}
}

func TestScrubReportsExactlyTheRottenChunks(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	defer s.Close()
	var ids []ChunkID
	for i := 0; i < 30; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte('a' + i%26)}, 200)))
	}
	rotten := []ChunkID{ids[3], ids[17], ids[29]}
	for _, cid := range rotten {
		rotChunk(t, env, s, cid)
	}

	report, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(report.MapDamage) != 0 {
		t.Fatalf("unexpected map damage: %v", report.MapDamage)
	}
	if got, want := report.BadIDs(), rotten; len(got) != len(want) {
		t.Fatalf("scrub found bad chunks %v, want %v", got, want)
	}
	for i, b := range report.Bad {
		if b.ID != rotten[i] {
			t.Fatalf("bad chunk %d = %d, want %d", i, b.ID, rotten[i])
		}
		e := chunkLoc(t, s, b.ID)
		if !sec.HashEqual(b.WantHash, e.hash) {
			t.Fatalf("bad chunk %d reported wrong expected hash", b.ID)
		}
		if b.Loc != e.loc {
			t.Fatalf("bad chunk %d reported loc %v, want %v", b.ID, b.Loc, e.loc)
		}
	}
	if report.ChunksChecked != int64(len(ids)-len(rotten)) {
		t.Fatalf("scrub checked %d chunks, want %d", report.ChunksChecked, len(ids)-len(rotten))
	}

	// Damage is contained: rotten chunks degrade, the rest read fine.
	for _, cid := range ids {
		_, err := s.Read(cid)
		isRotten := cid == rotten[0] || cid == rotten[1] || cid == rotten[2]
		if isRotten {
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("Read(%d) of rotten chunk: got %v, want ErrDegraded", cid, err)
			}
			if !errors.Is(err, ErrTampered) {
				t.Fatalf("Read(%d): degraded error should still match ErrTampered: %v", cid, err)
			}
		} else if err != nil {
			t.Fatalf("Read(%d) of intact chunk under quarantine regime: %v", cid, err)
		}
	}
	if got := s.Quarantined(); len(got) != len(rotten) {
		t.Fatalf("Quarantined() = %v, want %v", got, rotten)
	}

	// Rewriting a quarantined chunk heals it.
	writeChunk(t, s, rotten[0], []byte("healed"))
	if got, err := s.Read(rotten[0]); err != nil || !bytes.Equal(got, []byte("healed")) {
		t.Fatalf("Read after rewrite: %q, %v", got, err)
	}
	report2, err := s.Scrub()
	if err != nil {
		t.Fatalf("re-Scrub: %v", err)
	}
	if got, want := fmt.Sprint(report2.BadIDs()), fmt.Sprint(rotten[1:]); got != want {
		t.Fatalf("re-scrub bad ids %v, want %v", got, want)
	}
}

func TestOrganicReadQuarantinesDamagedChunk(t *testing.T) {
	// A read that trips over bit rot quarantines the chunk itself — no
	// scrub required — and the second read fails fast from quarantine.
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	defer s.Close()
	good := allocWrite(t, s, []byte("fine"))
	bad := allocWrite(t, s, bytes.Repeat([]byte("z"), 300))
	rotChunk(t, env, s, bad)

	if _, err := s.Read(bad); !errors.Is(err, ErrDegraded) || !errors.Is(err, ErrTampered) {
		t.Fatalf("first read of rotten chunk: %v", err)
	}
	if got := s.Quarantined(); len(got) != 1 || got[0] != bad {
		t.Fatalf("Quarantined() after organic read = %v, want [%d]", got, bad)
	}
	before := env.fs.Stats().Reads
	if _, err := s.Read(bad); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second read of quarantined chunk: %v", err)
	}
	if delta := env.fs.Stats().Reads - before; delta != 0 {
		t.Fatalf("quarantined read touched storage %d times, want 0", delta)
	}
	if _, err := s.Read(good); err != nil {
		t.Fatalf("read of intact chunk: %v", err)
	}
}

func TestScrubReportsMapDamage(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	env.cfg.Fanout = 4 // small fanout forces a multi-level map
	s := env.open(t)
	defer s.Close()
	for i := 0; i < 40; i++ {
		allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 64))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// Corrupt one stored map-node record, then drop its cached subtree so
	// the scrub must reload it from the log.
	s.mu.Lock()
	root := s.lm.root
	if root.level == 0 {
		s.mu.Unlock()
		t.Fatal("map did not grow beyond one level; raise the chunk count")
	}
	slot := -1
	for i := range root.entries {
		if !root.entries[i].isEmpty() && root.kids[i] != nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		s.mu.Unlock()
		t.Fatal("no loaded root child found")
	}
	loc := root.entries[slot].loc
	var drop func(n *mapNode)
	drop = func(n *mapNode) {
		for _, kid := range n.kids {
			if kid != nil {
				drop(kid)
			}
		}
		s.lm.unregisterNode(n)
	}
	drop(root.kids[slot])
	root.kids[slot] = nil
	root.kidCount--
	s.mu.Unlock()
	if err := env.fs.FlipBit(segmentName(loc.Seg), int64(loc.Off)+int64(loc.Len)/2, 1); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}

	report, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(report.MapDamage) != 1 {
		t.Fatalf("map damage entries = %v, want exactly 1", report.MapDamage)
	}
	if report.Clean() {
		t.Fatal("scrub of damaged map reported clean")
	}
	// Subtrees outside the damaged one are still verified.
	if report.ChunksChecked == 0 {
		t.Fatal("scrub verified no chunks despite only one damaged subtree")
	}
}
