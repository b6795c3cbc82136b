package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestSnapshotIsolatedFromLaterWrites(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	defer s.Close()
	cid := allocWrite(t, s, []byte("old"))
	snap, err := s.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	defer snap.Close()
	writeChunk(t, s, cid, []byte("new"))

	var snapVal []byte
	err = snap.ForEach(func(c ChunkID, hash, ciphertext []byte) error {
		if c == cid {
			plain, err := env.suite.Decrypt(ciphertext)
			if err != nil {
				return err
			}
			snapVal = plain
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if string(snapVal) != "old" {
		t.Fatalf("snapshot sees %q, want old", snapVal)
	}
	// Current state unaffected.
	got, _ := s.Read(cid)
	if string(got) != "new" {
		t.Fatalf("current state %q", got)
	}
}

// TestClosedSnapshotStopsForcingCopies: once the last open snapshot has
// closed — here Verify's own — a write changes the current tree's nodes in
// place, so a one-chunk commit keeps the root and its leaf. While another
// snapshot stays open, an audit's snapshot closing beside it must not
// unfreeze the nodes that snapshot shares: it still reads its own state.
func TestClosedSnapshotStopsForcingCopies(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	env.cfg.Fanout = 4
	env.cfg.DisableAutoClean, env.cfg.DisableAutoCheckpoint = true, true
	s := env.open(t)
	defer s.Close()
	var cid ChunkID
	for i := 0; i < 20; i++ {
		cid = allocWrite(t, s, []byte("v0"))
	}
	// path returns the current root and cid's leaf.
	path := func() (root, leaf *mapNode) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		p, err := s.lm.descend(cid, 0, readPath)
		if err != nil || p.node == nil || p.node == s.lm.root {
			t.Fatalf("test premise: chunk %d's leaf %p below root %p: %v", cid, p.node, s.lm.root, err)
		}
		return s.lm.root, p.node
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	root, leaf := path()
	b := s.NewBatch()
	b.Write(cid, []byte("v1"))
	if err := s.Commit(b, false); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if gotRoot, gotLeaf := path(); gotRoot != root || gotLeaf != leaf {
		t.Fatalf("a commit after Verify copied the root (%v) or the leaf (%v)", gotRoot != root, gotLeaf != leaf)
	}

	snap, err := s.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	defer snap.Close()
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	writeChunk(t, s, cid, []byte("v2"))
	var snapVal []byte
	if err := snap.ForEach(func(c ChunkID, _, ciphertext []byte) error {
		if c == cid {
			plain, err := env.suite.Decrypt(ciphertext)
			snapVal = plain
			return err
		}
		return nil
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if string(snapVal) != "v1" {
		t.Fatalf("the open snapshot sees %q after an audit closed beside it, want v1", snapVal)
	}
	wantRead(t, s, cid, "v2")
}

// TestSnapshotIsolatedFromNodesPagedInAfterIt: a map node paged in under a
// node the snapshot shares is reachable from the snapshot too, so a later
// write must copy it, not change it in place. The written chunk's path
// below the root is evicted before the snapshot; a read pages it back in
// under the shared root; the write after it must leave the snapshot's chunk
// alone, and the diff a later incremental backup streams must carry the
// change.
func TestSnapshotIsolatedFromNodesPagedInAfterIt(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	env.cfg.Fanout = 4
	env.cfg.DisableAutoClean, env.cfg.DisableAutoCheckpoint = true, true
	s := env.open(t)
	defer s.Close()
	var ids []ChunkID
	for i := 0; i < 32; i++ {
		ids = append(ids, allocWrite(t, s, []byte(fmt.Sprintf("v1-%02d", i))))
	}
	if err := s.Checkpoint(); err != nil { // every node clean, so evictable
		t.Fatalf("Checkpoint: %v", err)
	}
	cid := ids[5]
	s.mu.Lock()
	var evict func(n *mapNode)
	evict = func(n *mapNode) {
		for _, kid := range n.kids {
			if kid != nil {
				evict(kid)
			}
		}
		if !s.lm.evict(n) {
			t.Fatalf("node (%d,%d) not evictable", n.level, n.index)
		}
		s.lm.unregisterNode(n)
	}
	top := s.lm.root.kids[s.lm.childIndex(cid, s.lm.root.level)]
	evict(top)
	s.mu.Unlock()

	base, err := s.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	defer base.Close()
	if _, err := s.Read(cid); err != nil {
		t.Fatalf("Read: %v", err)
	}
	writeChunk(t, s, cid, []byte("v2"))

	var inBase []byte
	if err := base.ForEach(func(c ChunkID, _, ciphertext []byte) error {
		if c == cid {
			inBase = append([]byte(nil), ciphertext...)
		}
		return nil
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if plain, err := env.suite.Decrypt(inBase); err != nil || string(plain) != "v1-05" {
		t.Fatalf("snapshot sees chunk %d as %q, %v; want the value it froze, \"v1-05\"", cid, plain, err)
	}
	cur, err := s.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	defer cur.Close()
	var changed []ChunkID
	if err := cur.Diff(base, func(ch DiffChange) error {
		changed = append(changed, ch.CID)
		return nil
	}); err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(changed) != 1 || changed[0] != cid {
		t.Fatalf("Diff reported %v, want exactly chunk %d", changed, cid)
	}
}

func TestSnapshotForEachCoversAllChunks(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	want := map[ChunkID]string{}
	for i := 0; i < 150; i++ { // >64 forces a multi-level map
		cid := allocWrite(t, s, []byte(fmt.Sprintf("v-%d", i)))
		want[cid] = fmt.Sprintf("v-%d", i)
	}
	snap, _ := s.TakeSnapshot()
	defer snap.Close()
	got := map[ChunkID]string{}
	var last ChunkID
	err := snap.ForEach(func(cid ChunkID, hash, ct []byte) error {
		if cid <= last {
			t.Fatalf("ForEach out of order: %d after %d", cid, last)
		}
		last = cid
		plain, err := env.suite.Decrypt(ct)
		if err != nil {
			return err
		}
		got[cid] = string(plain)
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d chunks, want %d", len(got), len(want))
	}
	for cid, v := range want {
		if got[cid] != v {
			t.Fatalf("chunk %d: %q, want %q", cid, got[cid], v)
		}
	}
}

func TestSnapshotDiff(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	s := env.open(t)
	defer s.Close()
	var ids []ChunkID
	for i := 0; i < 100; i++ {
		ids = append(ids, allocWrite(t, s, []byte(fmt.Sprintf("base-%d", i))))
	}
	base, _ := s.TakeSnapshot()
	defer base.Close()

	// Change 3, delete 2, add 2.
	writeChunk(t, s, ids[5], []byte("changed-5"))
	writeChunk(t, s, ids[50], []byte("changed-50"))
	writeChunk(t, s, ids[99], []byte("changed-99"))
	b := s.NewBatch()
	b.Deallocate(ids[10])
	b.Deallocate(ids[70])
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("dealloc: %v", err)
	}
	added1 := allocWrite(t, s, []byte("added-1"))
	added2 := allocWrite(t, s, []byte("added-2"))

	cur, _ := s.TakeSnapshot()
	defer cur.Close()

	changes := map[ChunkID]DiffChange{}
	err := cur.Diff(base, func(ch DiffChange) error {
		// The ciphertext is lent until the callback returns.
		ch.Ciphertext = bytes.Clone(ch.Ciphertext)
		changes[ch.CID] = ch
		return nil
	})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	// Note: added1/added2 may reuse the deallocated ids, merging a delete
	// and an add into a single change.
	wantChanged := map[ChunkID]string{
		ids[5]: "changed-5", ids[50]: "changed-50", ids[99]: "changed-99",
		added1: "added-1", added2: "added-2",
	}
	for cid, wantVal := range wantChanged {
		ch, ok := changes[cid]
		if !ok {
			t.Fatalf("missing diff entry for chunk %d", cid)
		}
		if ch.Deleted {
			t.Fatalf("chunk %d reported deleted", cid)
		}
		plain, err := env.suite.Decrypt(ch.Ciphertext)
		if err != nil || string(plain) != wantVal {
			t.Fatalf("chunk %d diff payload %q, %v", cid, plain, err)
		}
		delete(changes, cid)
	}
	for cid, ch := range changes {
		if !ch.Deleted {
			t.Fatalf("unexpected non-delete diff for chunk %d", cid)
		}
		if cid != ids[10] && cid != ids[70] {
			t.Fatalf("unexpected deleted chunk %d", cid)
		}
	}
}

func TestSnapshotDiffEmptyForIdenticalStates(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	for i := 0; i < 30; i++ {
		allocWrite(t, s, []byte(fmt.Sprintf("x%d", i)))
	}
	a, _ := s.TakeSnapshot()
	defer a.Close()
	bSnap, _ := s.TakeSnapshot()
	defer bSnap.Close()
	count := 0
	if err := bSnap.Diff(a, func(DiffChange) error { count++; return nil }); err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if count != 0 {
		t.Fatalf("identical snapshots produced %d diffs", count)
	}
}

func TestSnapshotDiffAfterTreeGrowth(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	first := allocWrite(t, s, []byte("first"))
	base, _ := s.TakeSnapshot()
	defer base.Close()
	// Grow well past one leaf's capacity (fanout default 64).
	var added []ChunkID
	for i := 0; i < 200; i++ {
		added = append(added, allocWrite(t, s, []byte(fmt.Sprintf("grown-%d", i))))
	}
	cur, _ := s.TakeSnapshot()
	defer cur.Close()
	got := map[ChunkID]bool{}
	err := cur.Diff(base, func(ch DiffChange) error {
		if ch.Deleted {
			t.Fatalf("unexpected delete of %d", ch.CID)
		}
		got[ch.CID] = true
		return nil
	})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if got[first] {
		t.Fatal("unchanged chunk appeared in diff")
	}
	for _, cid := range added {
		if !got[cid] {
			t.Fatalf("added chunk %d missing from diff", cid)
		}
	}
}

func TestSnapshotSurvivesCleaningChurn(t *testing.T) {
	env := newTestEnv(t, "3des-sha1")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.MaxUtilization = 0.6
	s := env.open(t)
	defer s.Close()
	rng := rand.New(rand.NewSource(21))
	var ids []ChunkID
	for i := 0; i < 30; i++ {
		ids = append(ids, allocWrite(t, s, []byte(fmt.Sprintf("snapval-%d", i))))
	}
	snap, _ := s.TakeSnapshot()
	defer snap.Close()
	churn(t, s, ids, 300, rng)
	// The snapshot must still read its frozen state even though the cleaner
	// has been at work (it skips pinned segments).
	seen := 0
	err := snap.ForEach(func(cid ChunkID, hash, ct []byte) error {
		plain, err := env.suite.Decrypt(ct)
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(plain, []byte("snapval-")) {
			t.Fatalf("snapshot chunk %d has post-snapshot content %q", cid, plain)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach during churn: %v", err)
	}
	if seen != len(ids) {
		t.Fatalf("snapshot sees %d chunks, want %d", seen, len(ids))
	}
}

// TestSnapshotNodesNeverMovePastItsTail: a snapshot taken while map nodes
// are dirty shares them with the current tree. The checkpoint that writes
// them must write copies, never the shared nodes themselves: a shared node
// moved to a segment past the snapshot's tail, once evicted, is reloaded
// by the snapshot from there, and the cleaner frees such segments under an
// open snapshot.
func TestSnapshotNodesNeverMovePastItsTail(t *testing.T) {
	env := newTestEnv(t, "aes-gcm")
	env.cfg.Fanout = 4
	env.cfg.SegmentSize = 4 << 10
	env.cfg.CacheBytes = 1 // evict every clean node as soon as possible
	env.cfg.DisableAutoClean, env.cfg.DisableAutoCheckpoint = true, true
	s := env.open(t)
	defer s.Close()
	var ids []ChunkID
	for i := 0; i < 64; i++ {
		ids = append(ids, allocWrite(t, s, []byte(fmt.Sprintf("v0-%02d", i))))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	b := s.NewBatch()
	for i, cid := range ids {
		b.Write(cid, []byte(fmt.Sprintf("v1-%02d", i)))
	}
	if err := s.Commit(b, true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	snap, err := s.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	defer snap.Close()
	if err := s.Checkpoint(); err != nil { // every leaf and inner node is dirty
		t.Fatalf("Checkpoint: %v", err)
	}
	s.mu.Lock()
	spill := s.lm.root.loc.Seg
	if spill <= snap.tailSeg {
		s.mu.Unlock()
		t.Fatalf("test premise: the checkpoint stayed in the snapshot's tail segment %d", snap.tailSeg)
	}
	var walk func(n *mapNode)
	walk = func(n *mapNode) {
		if n.loc.Seg > snap.tailSeg {
			t.Errorf("snapshot node (%d,%d) moved to segment %d, past the snapshot's tail %d", n.level, n.index, n.loc.Seg, snap.tailSeg)
		}
		for _, kid := range n.kids {
			if kid != nil {
				walk(kid)
			}
		}
	}
	walk(snap.root)
	s.mu.Unlock()
	for round := 0; round < 6; round++ {
		b := s.NewBatch()
		for i := 0; i < len(ids); i += 8 {
			b.Write(ids[i], []byte(fmt.Sprintf("v2-%d-%02d", round, i)))
		}
		if err := s.Commit(b, true); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if err := errors.Join(s.Checkpoint(), s.Clean(), s.Checkpoint(), s.Clean()); err != nil {
			t.Fatalf("Checkpoint, Clean: %v", err)
		}
	}
	s.mu.Lock()
	_, kept := s.segs.segs[spill]
	s.mu.Unlock()
	if kept {
		t.Fatalf("test premise: cleaning kept segment %d, where the checkpoint after the snapshot wrote", spill)
	}
	seen := 0
	if err := snap.ForEach(func(cid ChunkID, _, ciphertext []byte) error {
		plain, err := env.suite.Decrypt(append([]byte(nil), ciphertext...))
		if err != nil || !bytes.HasPrefix(plain, []byte("v1-")) {
			t.Fatalf("snapshot chunk %d = %q, %v; want its v1 value", cid, plain, err)
		}
		seen++
		return nil
	}); err != nil {
		t.Fatalf("snapshot ForEach after cleaning: %v", err)
	}
	if seen != len(ids) {
		t.Fatalf("snapshot sees %d chunks, want %d", seen, len(ids))
	}
}

func TestSnapshotCloseUnpinsCleaner(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.SegmentSize = 4 << 10
	env.cfg.MaxUtilization = 0.5
	env.cfg.DisableAutoClean = true
	s := env.open(t)
	defer s.Close()
	rng := rand.New(rand.NewSource(31))
	var ids []ChunkID
	for i := 0; i < 40; i++ {
		ids = append(ids, allocWrite(t, s, bytes.Repeat([]byte{byte(i)}, 100)))
	}
	snap, _ := s.TakeSnapshot()
	// Overwrite everything: the initial versions are now garbage in the
	// current state but live in the snapshot, so their segments stay pinned.
	churn(t, s, ids, 200, rng)
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean with snapshot open: %v", err)
	}
	pinned := s.Stats().DiskBytes
	// The snapshot must still be fully readable after that cleaning pass.
	seen := 0
	if err := snap.ForEach(func(ChunkID, []byte, []byte) error { seen++; return nil }); err != nil {
		t.Fatalf("snapshot ForEach after cleaning: %v", err)
	}
	if seen != len(ids) {
		t.Fatalf("snapshot sees %d chunks, want %d", seen, len(ids))
	}
	snap.Close()
	if err := s.Clean(); err != nil {
		t.Fatalf("Clean after snapshot close: %v", err)
	}
	unpinned := s.Stats().DiskBytes
	if unpinned >= pinned {
		t.Fatalf("closing snapshot should let cleaner reclaim its pinned segments: %d -> %d", pinned, unpinned)
	}
}

func TestSnapshotOpsAfterClose(t *testing.T) {
	env := newTestEnv(t, "null")
	s := env.open(t)
	defer s.Close()
	allocWrite(t, s, []byte("x"))
	snap, _ := s.TakeSnapshot()
	snap2, _ := s.TakeSnapshot()
	snap.Close()
	if err := snap.ForEach(func(ChunkID, []byte, []byte) error { return nil }); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("ForEach after close: %v", err)
	}
	if err := snap2.Diff(snap, func(DiffChange) error { return nil }); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("Diff with closed base: %v", err)
	}
	snap.Close() // double close is a no-op
	snap2.Close()
}
