package backupstore

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"tdb/internal/chunkstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

type env struct {
	mem     *platform.MemStore
	counter *platform.MemCounter
	suite   sec.Suite
	arch    *platform.MemArchive
	cs      *chunkstore.Store
}

func newEnv(t *testing.T) *env {
	t.Helper()
	return newEnvSuite(t, "3des-sha1")
}

// digestLeafSuite is the default suite under another name with a Merkle
// leaf computed apart from decryption, digest(record), which Open checks
// before it decrypts: the tests' models of the two retired defaults,
// aes-ctr-sha256, whose leaf is Hash, and aes-ctr-gmac, whose leaf is a
// GMAC tag under a second key. Only the tests keep them.
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

// newEnvSuite is newEnv under the named suite.
func newEnvSuite(t *testing.T, name string) *env {
	t.Helper()
	secret := []byte("backup-test-device-secret-012345")
	suiteName := name
	if name == "aes-ctr-sha256" || name == "aes-ctr-gmac" {
		suiteName = "aes-gcm"
	}
	suite, err := sec.NewSuite(suiteName, secret)
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	switch base := suite; name {
	case "aes-ctr-sha256":
		suite = digestLeafSuite{base, name, func(dst, record []byte) []byte { return append(dst, base.Hash(record)...) }}
	case "aes-ctr-gmac":
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
		suite = digestLeafSuite{base, name, func(dst, record []byte) []byte {
			if len(record) < 16 {
				return append(dst, make([]byte, 20)...)
			}
			return append(gmac.Seal(dst, record[:16], nil, record[16:]), 0, 0, 0, 0)
		}}
	}
	e := &env{
		mem:     platform.NewMemStore(),
		counter: platform.NewMemCounter(),
		suite:   suite,
		arch:    platform.NewMemArchive(),
	}
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:   e.mem,
		Counter: e.counter,
		Suite:   suite,
	})
	if err != nil {
		t.Fatalf("chunkstore.Open: %v", err)
	}
	e.cs = cs
	return e
}

// freshTarget creates an empty store to restore into.
func freshTarget(t *testing.T, suite sec.Suite) *chunkstore.Store {
	t.Helper()
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:   platform.NewMemStore(),
		Counter: platform.NewMemCounter(),
		Suite:   suite,
	})
	if err != nil {
		t.Fatalf("open target: %v", err)
	}
	return cs
}

func write(t *testing.T, cs *chunkstore.Store, cid chunkstore.ChunkID, data string) {
	t.Helper()
	b := cs.NewBatch()
	b.Write(cid, []byte(data))
	if err := cs.Commit(b, true); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func alloc(t *testing.T, cs *chunkstore.Store, data string) chunkstore.ChunkID {
	t.Helper()
	cid, err := cs.AllocateChunkID()
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	write(t, cs, cid, data)
	return cid
}

func TestFullBackupRestore(t *testing.T) {
	e := newEnv(t)
	want := map[chunkstore.ChunkID]string{}
	for i := 0; i < 120; i++ {
		v := fmt.Sprintf("record-%d", i)
		want[alloc(t, e.cs, v)] = v
	}
	m := NewManager(e.cs, e.arch, e.suite)
	defer m.Close()
	info, err := m.Full()
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	if !info.Full || info.Chunks < 120 {
		t.Fatalf("info: %+v", info)
	}

	target := freshTarget(t, e.suite)
	defer target.Close()
	if err := Restore(target, e.arch, e.suite, []string{info.Name}); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for cid, v := range want {
		got, err := target.Read(cid)
		if err != nil || string(got) != v {
			t.Fatalf("restored Read(%d): %q, %v", cid, got, err)
		}
	}
	if err := target.Verify(); err != nil {
		t.Fatalf("Verify restored: %v", err)
	}
}

func TestIncrementalChain(t *testing.T) {
	e := newEnv(t)
	m := NewManager(e.cs, e.arch, e.suite)
	defer m.Close()

	a := alloc(t, e.cs, "a-v1")
	bID := alloc(t, e.cs, "b-v1")
	full, err := m.Full()
	if err != nil {
		t.Fatalf("Full: %v", err)
	}

	write(t, e.cs, a, "a-v2")
	c := alloc(t, e.cs, "c-v1")
	inc1, err := m.Incremental()
	if err != nil {
		t.Fatalf("Incremental 1: %v", err)
	}
	if inc1.Full {
		t.Fatal("expected incremental")
	}
	if inc1.Chunks == 0 || inc1.Chunks > 5 {
		t.Fatalf("incremental should be small, has %d chunks", inc1.Chunks)
	}

	del := e.cs.NewBatch()
	del.Deallocate(bID)
	if err := e.cs.Commit(del, true); err != nil {
		t.Fatalf("dealloc: %v", err)
	}
	write(t, e.cs, c, "c-v2")
	inc2, err := m.Incremental()
	if err != nil {
		t.Fatalf("Incremental 2: %v", err)
	}

	target := freshTarget(t, e.suite)
	defer target.Close()
	if err := Restore(target, e.arch, e.suite, []string{full.Name, inc1.Name, inc2.Name}); err != nil {
		t.Fatalf("Restore chain: %v", err)
	}
	if got, err := target.Read(a); err != nil || string(got) != "a-v2" {
		t.Fatalf("a: %q, %v", got, err)
	}
	if _, err := target.Read(bID); err == nil {
		t.Fatal("b should be deleted after chain restore")
	}
	if got, err := target.Read(c); err != nil || string(got) != "c-v2" {
		t.Fatalf("c: %q, %v", got, err)
	}
}

func TestChainDiscovery(t *testing.T) {
	e := newEnv(t)
	m := NewManager(e.cs, e.arch, e.suite)
	defer m.Close()
	alloc(t, e.cs, "x")
	if _, err := m.Full(); err != nil {
		t.Fatalf("Full: %v", err)
	}
	alloc(t, e.cs, "y")
	if _, err := m.Incremental(); err != nil {
		t.Fatalf("Incremental: %v", err)
	}
	alloc(t, e.cs, "z")
	if _, err := m.Incremental(); err != nil {
		t.Fatalf("Incremental: %v", err)
	}
	chain, err := Chain(e.arch, e.suite)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	if len(chain) != 3 || !chain[0].Full || chain[1].Full || chain[2].Full {
		t.Fatalf("chain: %+v", chain)
	}
	if chain[1].BaseSeq != chain[0].Seq || chain[2].BaseSeq != chain[1].Seq {
		t.Fatalf("chain sequence: %+v", chain)
	}

	// End-to-end: restore the discovered chain.
	target := freshTarget(t, e.suite)
	defer target.Close()
	names := make([]string, len(chain))
	for i, c := range chain {
		names[i] = c.Name
	}
	if err := Restore(target, e.arch, e.suite, names); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	st := target.Stats()
	if st.Chunks < 3 {
		t.Fatalf("restored %d chunks", st.Chunks)
	}
}

func TestRestoreRejectsTamperedBackup(t *testing.T) {
	e := newEnv(t)
	m := NewManager(e.cs, e.arch, e.suite)
	defer m.Close()
	alloc(t, e.cs, "precious")
	info, err := m.Full()
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	size, _ := e.arch.StreamSize(info.Name)
	// Flip each byte position (sampled) and verify restore rejects.
	raw, _ := e.arch.OpenStream(info.Name)
	orig, _ := readAll(raw)
	raw.Close()
	for off := int64(0); off < size; off += 7 {
		// Restore pristine content, then corrupt.
		w, _ := e.arch.CreateStream(info.Name)
		w.Write(orig)
		w.Close()
		if err := e.arch.Corrupt(info.Name, off); err != nil {
			t.Fatalf("Corrupt: %v", err)
		}
		target := freshTarget(t, e.suite)
		err := Restore(target, e.arch, e.suite, []string{info.Name})
		target.Close()
		if err == nil {
			t.Fatalf("tampered backup (byte %d) accepted", off)
		}
	}
}

func TestRestoreRejectsOutOfOrderIncrementals(t *testing.T) {
	e := newEnv(t)
	m := NewManager(e.cs, e.arch, e.suite)
	defer m.Close()
	a := alloc(t, e.cs, "v1")
	full, _ := m.Full()
	write(t, e.cs, a, "v2")
	inc1, _ := m.Incremental()
	write(t, e.cs, a, "v3")
	inc2, _ := m.Incremental()

	target := freshTarget(t, e.suite)
	defer target.Close()
	// Skipping inc1 must fail.
	if err := Restore(target, e.arch, e.suite, []string{full.Name, inc2.Name}); !errors.Is(err, ErrSequence) {
		t.Fatalf("skipped incremental: %v", err)
	}
	// Reordering must fail.
	if err := Restore(target, e.arch, e.suite, []string{full.Name, inc2.Name, inc1.Name}); !errors.Is(err, ErrSequence) {
		t.Fatalf("reordered incrementals: %v", err)
	}
	// Starting with an incremental must fail.
	if err := Restore(target, e.arch, e.suite, []string{inc1.Name}); !errors.Is(err, ErrSequence) {
		t.Fatalf("chain without full: %v", err)
	}
}

func TestRestoreRejectsWrongSecret(t *testing.T) {
	e := newEnv(t)
	m := NewManager(e.cs, e.arch, e.suite)
	defer m.Close()
	alloc(t, e.cs, "locked")
	info, _ := m.Full()
	other, _ := sec.NewSuite("3des-sha1", []byte("a-completely-different-secret-00"))
	target := freshTarget(t, other)
	defer target.Close()
	if err := Restore(target, e.arch, other, []string{info.Name}); !errors.Is(err, ErrInvalidBackup) {
		t.Fatalf("wrong-secret restore: %v", err)
	}
}

func TestBackupStreamIsEncrypted(t *testing.T) {
	e := newEnv(t)
	m := NewManager(e.cs, e.arch, e.suite)
	defer m.Close()
	alloc(t, e.cs, "SECRET-LICENSE-KEY-123456")
	info, _ := m.Full()
	r, _ := e.arch.OpenStream(info.Name)
	raw, _ := readAll(r)
	r.Close()
	if bytes.Contains(raw, []byte("SECRET-LICENSE")) {
		t.Fatal("backup leaks plaintext")
	}
}

func TestIncrementalSmallerThanFull(t *testing.T) {
	e := newEnv(t)
	m := NewManager(e.cs, e.arch, e.suite)
	defer m.Close()
	ids := make([]chunkstore.ChunkID, 200)
	for i := range ids {
		ids[i] = alloc(t, e.cs, fmt.Sprintf("bulk-%04d", i))
	}
	full, _ := m.Full()
	write(t, e.cs, ids[7], "changed")
	inc, err := m.Incremental()
	if err != nil {
		t.Fatalf("Incremental: %v", err)
	}
	fullSize, _ := e.arch.StreamSize(full.Name)
	incSize, _ := e.arch.StreamSize(inc.Name)
	if incSize*10 > fullSize {
		t.Fatalf("incremental (%d bytes) not much smaller than full (%d bytes)", incSize, fullSize)
	}
	if inc.Chunks != 1 {
		t.Fatalf("incremental has %d chunks, want 1", inc.Chunks)
	}
}

func TestRestoredDatabaseContinuesWorking(t *testing.T) {
	e := newEnv(t)
	m := NewManager(e.cs, e.arch, e.suite)
	defer m.Close()
	a := alloc(t, e.cs, "v1")
	info, _ := m.Full()

	target := freshTarget(t, e.suite)
	if err := Restore(target, e.arch, e.suite, []string{info.Name}); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The restored store accepts new writes and allocations.
	write(t, target, a, "v2")
	nid, err := target.AllocateChunkID()
	if err != nil {
		t.Fatalf("alloc on restored store: %v", err)
	}
	if nid == a {
		t.Fatal("restored allocator reissued a live id")
	}
	write(t, target, nid, "new")
	if err := target.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	target.Close()
}

func TestChainRejectsBrokenArchive(t *testing.T) {
	e := newEnv(t)
	m := NewManager(e.cs, e.arch, e.suite)
	defer m.Close()
	alloc(t, e.cs, "x")
	info, _ := m.Full()
	e.arch.Corrupt(info.Name, 10)
	if _, err := Chain(e.arch, e.suite); err == nil {
		t.Fatal("Chain accepted a corrupt archive")
	}
}

func TestParseStreamName(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  uint64
		full bool
		ok   bool
	}{
		{"backup-0000000000000042-full", 42, true, true},
		{"backup-0000000000000007-incr", 7, false, true},
		{"backup-x-full", 0, false, false},
		{"other-file", 0, false, false},
		{"backup-12", 0, false, false},
	} {
		seq, full, ok := parseStreamName(tc.name)
		if seq != tc.seq || full != tc.full || ok != tc.ok {
			t.Fatalf("parseStreamName(%q) = (%d,%v,%v)", tc.name, seq, full, ok)
		}
	}
}

func TestStagedArchiveMigration(t *testing.T) {
	e := newEnv(t)
	staged := NewStagedArchive(e.mem, "staged-")
	m := NewManager(e.cs, staged, e.suite)
	defer m.Close()
	alloc(t, e.cs, "stage me")
	full, err := m.Full()
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	alloc(t, e.cs, "and me")
	if _, err := m.Incremental(); err != nil {
		t.Fatalf("Incremental: %v", err)
	}

	// The device comes online: migrate to the "remote server".
	remote := platform.NewMemArchive()
	migrated, err := staged.MigrateTo(remote, e.suite, true)
	if err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	if len(migrated) != 2 {
		t.Fatalf("migrated %v", migrated)
	}
	if left, _ := staged.ListStreams(); len(left) != 0 {
		t.Fatalf("local staging not cleared: %v", left)
	}
	// The remote chain restores.
	chain, err := Chain(remote, e.suite)
	if err != nil {
		t.Fatalf("Chain on remote: %v", err)
	}
	names := make([]string, len(chain))
	for i, c := range chain {
		names[i] = c.Name
	}
	target := freshTarget(t, e.suite)
	defer target.Close()
	if err := Restore(target, remote, e.suite, names); err != nil {
		t.Fatalf("Restore from remote: %v", err)
	}
	if target.Stats().Chunks < 2 {
		t.Fatalf("restored %d chunks", target.Stats().Chunks)
	}
	_ = full
}

func TestStagedArchiveRejectsTamperedMigration(t *testing.T) {
	e := newEnv(t)
	staged := NewStagedArchive(e.mem, "staged-")
	m := NewManager(e.cs, staged, e.suite)
	defer m.Close()
	alloc(t, e.cs, "x")
	info, _ := m.Full()
	// Corrupt the staged file in the untrusted store.
	if err := e.mem.Corrupt("staged-"+info.Name, 30); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	remote := platform.NewMemArchive()
	if _, err := staged.MigrateTo(remote, e.suite, true); err == nil {
		t.Fatal("tampered staged backup migrated")
	}
	// Nothing reached the remote.
	if names, _ := remote.ListStreams(); len(names) != 0 {
		t.Fatalf("remote has %v", names)
	}
}
