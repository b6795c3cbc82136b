package backupstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"tdb/internal/chunkstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// faultEnv is a chunk store over a fault-injecting store, so tests can flip
// bits in stored chunks and crash mid-restore.
type faultEnv struct {
	mem     *platform.MemStore
	fs      *platform.FaultStore
	counter *platform.MemCounter
	suite   sec.Suite
	arch    *platform.MemArchive
	cfg     chunkstore.Config
	cs      *chunkstore.Store
}

func newFaultEnv(t *testing.T) *faultEnv {
	t.Helper()
	return newFaultEnvSuite(t, "3des-sha1")
}

// newFaultEnvSuite is newFaultEnv under the named suite.
func newFaultEnvSuite(t *testing.T, name string) *faultEnv {
	t.Helper()
	suite, err := sec.NewSuite(name, []byte("repair-test-device-secret-012345"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	e := &faultEnv{
		mem:     platform.NewMemStore(),
		counter: platform.NewMemCounter(),
		suite:   suite,
		arch:    platform.NewMemArchive(),
	}
	e.fs = platform.NewFaultStore(e.mem)
	e.cfg = chunkstore.Config{
		Store:   e.fs,
		Counter: e.counter,
		Suite:   suite,
	}
	e.cs, err = chunkstore.Open(e.cfg)
	if err != nil {
		t.Fatalf("chunkstore.Open: %v", err)
	}
	return e
}

// liveCiphertexts captures every live chunk's stored ciphertext.
func liveCiphertexts(t *testing.T, cs *chunkstore.Store) map[chunkstore.ChunkID][]byte {
	t.Helper()
	snap, err := cs.TakeSnapshot()
	if err != nil {
		t.Fatalf("TakeSnapshot: %v", err)
	}
	defer snap.Close()
	out := make(map[chunkstore.ChunkID][]byte)
	err = snap.ForEach(func(cid chunkstore.ChunkID, hash, ciphertext []byte) error {
		out[cid] = append([]byte(nil), ciphertext...)
		return nil
	})
	if err != nil {
		t.Fatalf("snapshot walk: %v", err)
	}
	return out
}

// rotLiveChunk flips one bit inside cid's live stored ciphertext by locating
// those bytes in the raw segment files — the view an attacker (or failing
// firmware) has of the untrusted store.
func rotLiveChunk(t *testing.T, e *faultEnv, cid chunkstore.ChunkID, cipher []byte) {
	t.Helper()
	for name, data := range e.mem.Snapshot() {
		if i := bytes.Index(data, cipher); i >= 0 {
			if err := e.fs.FlipBit(name, int64(i)+int64(len(cipher))/2, 6); err != nil {
				t.Fatalf("FlipBit(%s): %v", name, err)
			}
			return
		}
	}
	t.Fatalf("chunk %d ciphertext not found in any store file", cid)
}

func TestScrubRepairEndToEnd(t *testing.T) {
	e := newFaultEnv(t)
	defer e.cs.Close()
	mgr := NewManager(e.cs, e.arch, e.suite)
	defer mgr.Close()

	// Build three backup generations; track expected plaintext per chunk.
	content := make(map[chunkstore.ChunkID]string)
	var ids []chunkstore.ChunkID
	put := func(cid chunkstore.ChunkID, v string) {
		write(t, e.cs, cid, v)
		content[cid] = v
	}
	for i := 0; i < 20; i++ {
		cid := alloc(t, e.cs, fmt.Sprintf("gen1-chunk-%02d-%s", i, bytes.Repeat([]byte("x"), 120)))
		content[cid] = fmt.Sprintf("gen1-chunk-%02d-%s", i, bytes.Repeat([]byte("x"), 120))
		ids = append(ids, cid)
	}
	if _, err := mgr.Full(); err != nil {
		t.Fatalf("Full: %v", err)
	}
	for i := 0; i < 5; i++ {
		put(ids[i], fmt.Sprintf("gen2-rewrite-%02d-%s", i, bytes.Repeat([]byte("y"), 150)))
	}
	if _, err := mgr.Incremental(); err != nil {
		t.Fatalf("Incremental 1: %v", err)
	}
	put(ids[5], "gen3-rewrite-05-"+string(bytes.Repeat([]byte("z"), 180)))
	put(ids[6], "gen3-rewrite-06-"+string(bytes.Repeat([]byte("w"), 180)))
	if _, err := mgr.Incremental(); err != nil {
		t.Fatalf("Incremental 2: %v", err)
	}

	// Rot four live chunks spanning all three generations: ids[10] is only
	// in the full backup, ids[1] only current in incremental 1, ids[5] in
	// incremental 2, ids[15] again full-backup-only.
	victims := []chunkstore.ChunkID{ids[1], ids[5], ids[10], ids[15]}
	ciphers := liveCiphertexts(t, e.cs)
	for _, cid := range victims {
		rotLiveChunk(t, e, cid, ciphers[cid])
	}

	// Scrub reports exactly the rotten chunks.
	report, err := e.cs.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(report.MapDamage) != 0 {
		t.Fatalf("unexpected map damage: %v", report.MapDamage)
	}
	wantBad := append([]chunkstore.ChunkID(nil), victims...)
	slices.Sort(wantBad)
	if got := report.BadIDs(); fmt.Sprint(got) != fmt.Sprint(wantBad) {
		t.Fatalf("scrub found %v, want %v", got, wantBad)
	}
	for _, cid := range victims {
		if _, err := e.cs.Read(cid); !errors.Is(err, chunkstore.ErrDegraded) {
			t.Fatalf("Read(%d) before repair: %v, want ErrDegraded", cid, err)
		}
	}

	// Repair heals every victim from the full + incremental chain.
	res, err := Repair(e.cs, e.arch, e.suite, report)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if fmt.Sprint(res.Healed) != fmt.Sprint(wantBad) {
		t.Fatalf("healed %v, want %v", res.Healed, wantBad)
	}
	if len(res.Unrepairable) != 0 {
		t.Fatalf("unrepairable: %+v", res.Unrepairable)
	}
	if !res.Report.Clean() {
		t.Fatalf("post-repair scrub not clean: %+v", res.Report)
	}
	if err := e.cs.Verify(); err != nil {
		t.Fatalf("Verify after repair: %v", err)
	}
	for cid, want := range content {
		got, err := e.cs.Read(cid)
		if err != nil || string(got) != want {
			t.Fatalf("Read(%d) after repair: %q, %v (want %q)", cid, got, err, want)
		}
	}
}

// TestSealedChunkTamperCaughtOnEveryPath flips one ciphertext bit of a
// chunk sealed under the default suite, whose Merkle leaf is the record's
// AES-GCM tag, and checks that every path that authenticates the record
// catches it while its neighbours still verify: Verify fails, Scrub reports
// exactly that chunk, Repair heals it from a backup and the store verifies
// again; and a record flipped in the residual log fails the reopen whose
// replay recomputes its leaf, while the same log unflipped replays to a
// store that verifies.
func TestSealedChunkTamperCaughtOnEveryPath(t *testing.T) {
	e := newFaultEnvSuite(t, "aes-gcm")
	defer e.cs.Close()
	mgr := NewManager(e.cs, e.arch, e.suite)
	defer mgr.Close()
	content := make(map[chunkstore.ChunkID]string)
	var ids []chunkstore.ChunkID
	for i := 0; i < 8; i++ {
		v := fmt.Sprintf("sealed-%02d-%s", i, bytes.Repeat([]byte("s"), 200))
		cid := alloc(t, e.cs, v)
		content[cid] = v
		ids = append(ids, cid)
	}
	if _, err := mgr.Full(); err != nil {
		t.Fatalf("Full: %v", err)
	}
	victim := ids[3]
	rotLiveChunk(t, e, victim, liveCiphertexts(t, e.cs)[victim])

	if err := e.cs.Verify(); !errors.Is(err, chunkstore.ErrTampered) && !errors.Is(err, chunkstore.ErrDegraded) {
		t.Fatalf("Verify of a flipped record: %v, want tampered or degraded", err)
	}
	report, err := e.cs.Scrub()
	if err != nil || fmt.Sprint(report.BadIDs()) != fmt.Sprint([]chunkstore.ChunkID{victim}) {
		t.Fatalf("Scrub: %v, %v; want chunk %d alone", report.BadIDs(), err, victim)
	}
	if got, err := e.cs.Read(ids[4]); err != nil || string(got) != content[ids[4]] {
		t.Fatalf("the victim's neighbour: %q, %v", got, err)
	}
	res, err := Repair(e.cs, e.arch, e.suite, report)
	if err != nil || fmt.Sprint(res.Healed) != fmt.Sprint([]chunkstore.ChunkID{victim}) || !res.Report.Clean() {
		t.Fatalf("Repair: %+v, %v; want chunk %d healed and a clean scrub", res, err, victim)
	}
	if err := e.cs.Verify(); err != nil {
		t.Fatalf("Verify after repair: %v", err)
	}

	// A durable rewrite lands in the residual log, which a reopen replays:
	// image a store whose last chunk write was never checkpointed.
	mem, counter := platform.NewMemStore(), platform.NewMemCounter()
	cs, err := chunkstore.Open(chunkstore.Config{Store: mem, Counter: counter, Suite: e.suite})
	if err != nil {
		t.Fatalf("chunkstore.Open: %v", err)
	}
	content = make(map[chunkstore.ChunkID]string)
	for i := 0; i < 4; i++ {
		v := fmt.Sprintf("replayed-%02d-%s", i, bytes.Repeat([]byte("r"), 200))
		content[alloc(t, cs, v)] = v
	}
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	replayed := alloc(t, cs, "the residual log's last write")
	content[replayed] = "the residual log's last write"
	record := liveCiphertexts(t, cs)[replayed]
	img := mem.Snapshot()
	ctr, _ := counter.Read()
	cs.Close()
	for _, flip := range []bool{true, false} {
		damaged := make(map[string][]byte, len(img))
		for name, data := range img {
			damaged[name] = append([]byte(nil), data...)
		}
		if flip {
			found := false
			for _, data := range damaged {
				if i := bytes.Index(data, record); i >= 0 {
					data[i+len(record)/2] ^= 0x40
					reCRC(t, data, i)
					found = true
				}
			}
			if !found {
				t.Fatal("the rewritten record is not in the store")
			}
		}
		mem := platform.NewMemStore()
		mem.Restore(damaged)
		counter := platform.NewMemCounter()
		counter.Set(ctr)
		cs, err := chunkstore.Open(chunkstore.Config{Store: mem, Counter: counter, Suite: e.suite})
		if flip {
			if err == nil {
				cs.Close()
				t.Fatal("a reopen replayed a flipped record")
			}
			if !errors.Is(err, chunkstore.ErrTampered) {
				t.Fatalf("reopen over a flipped record: %v, want ErrTampered", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if err := cs.Verify(); err != nil {
			t.Fatalf("Verify after replay: %v", err)
		}
		for cid, want := range content {
			if got, err := cs.Read(cid); err != nil || string(got) != want {
				t.Fatalf("Read(%d) after replay: %q, %v", cid, got, err)
			}
		}
		cs.Close()
	}
}

// reCRC recomputes the CRC of the log record whose ciphertext starts at
// off in a segment image, as anyone who rewrites a record can: the record
// header (type, length, CRC) and the 8-byte chunk id precede it.
func reCRC(t *testing.T, seg []byte, off int) {
	t.Helper()
	start := off - 8 - 9
	n := int(binary.BigEndian.Uint32(seg[start+1 : start+5]))
	crc := crc32.NewIEEE()
	crc.Write(seg[start : start+5])
	crc.Write(seg[start+9 : start+9+n])
	binary.BigEndian.PutUint32(seg[start+5:start+9], crc.Sum32())
}

func TestRepairLeavesUncoveredChunksQuarantined(t *testing.T) {
	// A chunk written after the last backup has no valid copy anywhere in
	// the chain: Repair must not "heal" it from a stale copy.
	e := newFaultEnv(t)
	defer e.cs.Close()
	mgr := NewManager(e.cs, e.arch, e.suite)
	defer mgr.Close()

	covered := alloc(t, e.cs, "covered-"+string(bytes.Repeat([]byte("c"), 100)))
	stale := alloc(t, e.cs, "old-version-"+string(bytes.Repeat([]byte("o"), 100)))
	if _, err := mgr.Full(); err != nil {
		t.Fatalf("Full: %v", err)
	}
	// Rewrite after the backup: the chain only holds the old version.
	write(t, e.cs, stale, "new-version-"+string(bytes.Repeat([]byte("n"), 100)))

	ciphers := liveCiphertexts(t, e.cs)
	rotLiveChunk(t, e, covered, ciphers[covered])
	rotLiveChunk(t, e, stale, ciphers[stale])

	report, err := e.cs.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(report.Bad) != 2 {
		t.Fatalf("scrub found %v, want both victims", report.BadIDs())
	}
	res, err := Repair(e.cs, e.arch, e.suite, report)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if len(res.Healed) != 1 || res.Healed[0] != covered {
		t.Fatalf("healed %v, want [%d]", res.Healed, covered)
	}
	if len(res.Unrepairable) != 1 || res.Unrepairable[0].ID != stale {
		t.Fatalf("unrepairable %+v, want chunk %d", res.Unrepairable, stale)
	}
	if res.Report.Clean() {
		t.Fatal("post-repair scrub clean despite an unrepairable chunk")
	}
	if got, err := e.cs.Read(covered); err != nil || !bytes.HasPrefix(got, []byte("covered-")) {
		t.Fatalf("Read(covered) after repair: %q, %v", got, err)
	}
	// The stale-copy rule held: the chunk stays degraded rather than being
	// silently rolled back to the backed-up old version.
	if _, err := e.cs.Read(stale); !errors.Is(err, chunkstore.ErrDegraded) {
		t.Fatalf("Read(stale) after repair: %v, want ErrDegraded", err)
	}
}

// restoreModel captures the expected chunk contents after each backup stream.
type restoreModel map[chunkstore.ChunkID]string

func (m restoreModel) clone() restoreModel {
	out := make(restoreModel, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// matches reports whether the store's committed state equals the model.
func (m restoreModel) matches(cs *chunkstore.Store) bool {
	if cs.Stats().Chunks != int64(len(m)) {
		return false
	}
	for cid, want := range m {
		got, err := cs.Read(cid)
		if err != nil || string(got) != want {
			return false
		}
	}
	return true
}

func TestRestoreCrashSweep(t *testing.T) {
	// Crash the target at every write boundary during a chain restore. A
	// recovered target must hold exactly a stream-prefix state (after 0, 1,
	// 2, or 3 applied streams) — never a half-applied state that validates.
	suite, err := sec.NewSuite("3des-sha1", []byte("restore-sweep-device-secret-0123"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}

	// Source database: full backup, then two incrementals with rewrites,
	// adds, and a delete.
	srcEnv := &faultEnv{
		mem:     platform.NewMemStore(),
		counter: platform.NewMemCounter(),
		suite:   suite,
		arch:    platform.NewMemArchive(),
	}
	srcEnv.fs = platform.NewFaultStore(srcEnv.mem)
	srcEnv.cfg = chunkstore.Config{Store: srcEnv.fs, Counter: srcEnv.counter, Suite: suite}
	src, err := chunkstore.Open(srcEnv.cfg)
	if err != nil {
		t.Fatalf("open source: %v", err)
	}
	defer src.Close()
	mgr := NewManager(src, srcEnv.arch, suite)
	defer mgr.Close()

	states := []restoreModel{{}} // state 0: freshly formatted target
	model := restoreModel{}
	var ids []chunkstore.ChunkID
	for i := 0; i < 12; i++ {
		v := fmt.Sprintf("full-%02d-%s", i, bytes.Repeat([]byte("f"), 80))
		cid := alloc(t, src, v)
		model[cid] = v
		ids = append(ids, cid)
	}
	if _, err := mgr.Full(); err != nil {
		t.Fatalf("Full: %v", err)
	}
	states = append(states, model.clone())

	for i := 0; i < 4; i++ {
		v := fmt.Sprintf("incr1-%02d-%s", i, bytes.Repeat([]byte("g"), 90))
		write(t, src, ids[i], v)
		model[ids[i]] = v
	}
	b := src.NewBatch()
	b.Deallocate(ids[11])
	if err := src.Commit(b, true); err != nil {
		t.Fatalf("delete commit: %v", err)
	}
	delete(model, ids[11])
	if _, err := mgr.Incremental(); err != nil {
		t.Fatalf("Incremental 1: %v", err)
	}
	states = append(states, model.clone())

	v := "incr2-new-" + string(bytes.Repeat([]byte("h"), 100))
	cid := alloc(t, src, v)
	model[cid] = v
	if _, err := mgr.Incremental(); err != nil {
		t.Fatalf("Incremental 2: %v", err)
	}
	states = append(states, model.clone())

	chain, err := Chain(srcEnv.arch, suite)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain length %d, want 3", len(chain))
	}
	var names []string
	for _, info := range chain {
		names = append(names, info.Name)
	}

	for budget := int64(1); ; budget++ {
		tmem := platform.NewMemStore()
		tfs := platform.NewFaultStore(tmem)
		tctr := platform.NewMemCounter()
		tcfg := chunkstore.Config{Store: tfs, Counter: tctr, Suite: suite}
		target, err := chunkstore.Open(tcfg)
		if err != nil {
			t.Fatalf("budget %d: open target: %v", budget, err)
		}
		tfs.SetWriteBudget(budget)
		restoreErr := Restore(target, srcEnv.arch, suite, names)
		completed := restoreErr == nil && tfs.WriteOps() > 0

		// Power loss, then recovery of whatever the restore left behind.
		tmem.Crash()
		tfs.SetWriteBudget(-1)
		recovered, err := chunkstore.Open(tcfg)
		if err != nil {
			// Cleanly invalid is acceptable only if a from-scratch restore
			// then succeeds on wiped storage.
			fresh, ferr := chunkstore.Open(chunkstore.Config{
				Store: platform.NewMemStore(), Counter: platform.NewMemCounter(), Suite: suite,
			})
			if ferr != nil {
				t.Fatalf("budget %d: fresh target after invalid recovery: %v", budget, ferr)
			}
			if rerr := Restore(fresh, srcEnv.arch, suite, names); rerr != nil {
				t.Fatalf("budget %d: full restore after invalid recovery: %v", budget, rerr)
			}
			if !states[len(states)-1].matches(fresh) {
				t.Fatalf("budget %d: re-restore produced wrong state", budget)
			}
			fresh.Close()
			continue
		}
		matched := -1
		for k := len(states) - 1; k >= 0; k-- {
			if states[k].matches(recovered) {
				matched = k
				break
			}
		}
		if matched < 0 {
			t.Fatalf("budget %d: recovered target matches no stream-prefix state (chunks=%d)",
				budget, recovered.Stats().Chunks)
		}
		if completed && matched != len(states)-1 {
			t.Fatalf("budget %d: restore reported success but target is at state %d of %d",
				budget, matched, len(states)-1)
		}
		if err := recovered.Verify(); err != nil {
			t.Fatalf("budget %d: Verify of recovered target: %v", budget, err)
		}
		recovered.Close()
		if completed {
			break
		}
	}
}
