package backupstore

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"tdb/internal/chunkstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// backupStreams returns the bytes of a real full backup stream and of an
// incremental stream that extends it with a rewrite, a new chunk and a
// deallocation, both under aes-gcm, and their suite.
func backupStreams(tb testing.TB) (full, incr []byte, suite sec.Suite) {
	tb.Helper()
	suite, err := sec.NewSuite("aes-gcm", []byte("backup-test-device-secret-012345"))
	if err != nil {
		tb.Fatalf("NewSuite: %v", err)
	}
	cs, err := chunkstore.Open(chunkstore.Config{Store: platform.NewMemStore(), Counter: platform.NewMemCounter(), Suite: suite})
	if err != nil {
		tb.Fatalf("chunkstore.Open: %v", err)
	}
	defer cs.Close()
	arch := platform.NewMemArchive()
	m := NewManager(cs, arch, suite)
	defer m.Close()
	commit := func(b *chunkstore.Batch) {
		if err := cs.Commit(b, true); err != nil {
			tb.Fatalf("Commit: %v", err)
		}
	}
	var cids []chunkstore.ChunkID
	b := cs.NewBatch()
	for _, v := range []string{"a usage meter record", "a license", "a revoked license"} {
		cid, err := cs.AllocateChunkID()
		if err != nil {
			tb.Fatalf("AllocateChunkID: %v", err)
		}
		b.Write(cid, []byte(v))
		cids = append(cids, cid)
	}
	commit(b)
	stream := func(backup func() (Info, error)) []byte {
		info, err := backup()
		if err != nil {
			tb.Fatalf("backup: %v", err)
		}
		r, err := arch.OpenStream(info.Name)
		if err != nil {
			tb.Fatalf("OpenStream: %v", err)
		}
		defer r.Close()
		raw, err := io.ReadAll(r)
		if err != nil {
			tb.Fatalf("reading %s: %v", info.Name, err)
		}
		return raw
	}
	full = stream(m.Full)
	b = cs.NewBatch()
	b.Write(cids[0], []byte("a usage meter record, later"))
	b.Deallocate(cids[2])
	commit(b)
	return full, stream(m.Incremental), suite
}

// boundedAlloc runs decode and fails t if it allocated more than 64 KiB
// plus 64 bytes per input byte: a length or count field must never make
// the decoder allocate more than a small multiple of the bytes behind it.
func boundedAlloc(t *testing.T, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*n); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, want <= %d", n, got, limit)
	}
}

// FuzzParseBackup holds the backup decoder to the untrusted-archive
// contract: whatever bytes a stream holds, parseBackup returns a decoded
// stream whose entries lie inside it, or an error wrapping
// ErrInvalidBackup, with bounded allocation and never a panic. The seeds
// are a real full stream and a real incremental one.
func FuzzParseBackup(f *testing.F) {
	full, incr, suite := backupStreams(f)
	f.Add(full)
	f.Add(incr)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var h header
		var entries []entry
		var err error
		boundedAlloc(t, len(raw), func() { h, entries, err = parseBackup(raw, suite) })
		if err != nil {
			if !errors.Is(err, ErrInvalidBackup) {
				t.Fatalf("parseBackup: %v does not wrap ErrInvalidBackup", err)
			}
			return
		}
		if h.suite != suite.Name() {
			t.Fatalf("decoded a stream of suite %q under %q", h.suite, suite.Name())
		}
		for _, e := range entries {
			if (e.kind != entryPut && e.kind != entryDelete) || len(e.ciphertext) > len(raw) {
				t.Fatalf("decoded an entry of kind %d with %d bytes from a %d-byte stream", e.kind, len(e.ciphertext), len(raw))
			}
		}
	})
}

// TestParseBackupRejectsEveryByteFlip: the header and trailer MACs cover
// every byte of a stream, so a real stream with any single byte flipped
// never parses.
func TestParseBackupRejectsEveryByteFlip(t *testing.T) {
	full, incr, suite := backupStreams(t)
	for name, raw := range map[string][]byte{"full": full, "incremental": incr} {
		if _, entries, err := parseBackup(raw, suite); err != nil || len(entries) == 0 {
			t.Fatalf("%s stream: %d entries, %v; want a valid stream with entries", name, len(entries), err)
		}
		for i := range raw {
			flipped := bytes.Clone(raw)
			flipped[i] ^= 0xff
			if _, _, err := parseBackup(flipped, suite); !errors.Is(err, ErrInvalidBackup) {
				t.Fatalf("%s stream with byte %d of %d flipped: parseBackup = %v, want ErrInvalidBackup", name, i, len(raw), err)
			}
		}
	}
}
