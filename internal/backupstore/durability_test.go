package backupstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tdb/internal/chunkstore"
)

// TestChainNeverRestoresStateACrashDropped: a full backup taken over
// nondurable commits must not outlive them. Before backups hardened their
// snapshot, a crash dropped the three nondurable writes the first full
// backup (seq 5) held, the reopened store reused seq 3 for its next durable
// write, and Chain — which picks the full backup with the highest sequence
// — restored the dropped state "lost-c" instead of "durable-2".
func TestChainNeverRestoresStateACrashDropped(t *testing.T) {
	e := newEnv(t)
	cid := alloc(t, e.cs, "durable-1")
	for _, v := range []string{"lost-a", "lost-b", "lost-c"} {
		b := e.cs.NewBatch()
		b.Write(cid, []byte(v))
		if err := e.cs.Commit(b, false); err != nil {
			t.Fatalf("nondurable commit %s: %v", v, err)
		}
	}
	m := NewManager(e.cs, e.arch, e.suite)
	if _, err := m.Full(); err != nil {
		t.Fatalf("first Full: %v", err)
	}
	m.Close()

	e.mem.Crash()
	cs, err := chunkstore.Open(chunkstore.Config{Store: e.mem, Counter: e.counter, Suite: e.suite})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer cs.Close()
	if got, err := cs.Read(cid); err != nil || string(got) != "lost-c" {
		t.Errorf("after the crash the store reads %q, %v; want the backed-up %q", got, err, "lost-c")
	}
	write(t, cs, cid, "durable-2")
	m2 := NewManager(cs, e.arch, e.suite)
	defer m2.Close()
	second, err := m2.Full()
	if err != nil {
		t.Fatalf("second Full: %v", err)
	}

	chain, err := Chain(e.arch, e.suite)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	if len(chain) != 1 || chain[0].Name != second.Name {
		t.Fatalf("Chain = %+v, want only the second full backup %q", chain, second.Name)
	}
	target := freshTarget(t, e.suite)
	defer target.Close()
	if err := Restore(target, e.arch, e.suite, []string{chain[0].Name}); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, err := target.Read(cid); err != nil || string(got) != "durable-2" {
		t.Fatalf("restored chain reads %q, %v; want %q", got, err, "durable-2")
	}
}

// TestRestoreRejectsDeleteOfUnknownChunk restores an incremental whose
// batch holds the real diff's puts and a delete of an id the target never
// saw. Diff streams deletes only for chunks its base held, so no honest
// chain carries such a delete: Restore fails with ErrInvalidBackup rather
// than skipping it.
func TestRestoreRejectsDeleteOfUnknownChunk(t *testing.T) {
	for _, name := range []string{"3des-sha1", "aes-ctr-gmac", "aes-ctr-sha256"} {
		t.Run(name, func(t *testing.T) {
			e := newEnvSuite(t, name)
			want := map[chunkstore.ChunkID][]byte{}
			for i := 0; i < 8; i++ {
				v := fmt.Sprintf("base-%d", i)
				want[alloc(t, e.cs, v)] = []byte(v)
			}
			m := NewManager(e.cs, e.arch, e.suite)
			defer m.Close()
			full, err := m.Full()
			if err != nil {
				t.Fatalf("Full: %v", err)
			}
			for cid := range want {
				v := bytes.Repeat([]byte(fmt.Sprintf("v2-%d;", cid)), 20)
				write(t, e.cs, cid, string(v))
				want[cid] = v
			}
			for i := 0; i < 4; i++ {
				v := fmt.Sprintf("new-%d", i)
				want[alloc(t, e.cs, v)] = []byte(v)
			}

			// The incremental is the real diff plus a delete of an id no
			// stream ever put, which the target has never allocated.
			snap, err := e.cs.TakeSnapshot()
			if err != nil {
				t.Fatalf("TakeSnapshot: %v", err)
			}
			defer snap.Close()
			incr := streamName(snap.Seq(), false)
			w, err := e.arch.CreateStream(incr)
			if err != nil {
				t.Fatalf("CreateStream: %v", err)
			}
			bw := newBackupWriter(w, e.suite)
			if err := bw.writeHeader(false, snap.Seq(), full.Seq, snap.Counter(), snap.RootHash()); err != nil {
				t.Fatalf("writeHeader: %v", err)
			}
			puts := 0
			err = snap.Diff(m.lastSnap, func(ch chunkstore.DiffChange) error {
				puts++
				return bw.writeEntry(entryPut, ch.CID, ch.Ciphertext)
			})
			if err != nil {
				t.Fatalf("Diff: %v", err)
			}
			if puts != len(want) {
				t.Fatalf("diff streamed %d puts, want %d", puts, len(want))
			}
			if err := bw.writeEntry(entryDelete, 1<<20, nil); err != nil {
				t.Fatalf("writeEntry: %v", err)
			}
			if err := bw.writeTrailer(); err != nil {
				t.Fatalf("writeTrailer: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close stream: %v", err)
			}

			target := freshTarget(t, e.suite)
			defer target.Close()
			if err := Restore(target, e.arch, e.suite, []string{full.Name, incr}); !errors.Is(err, ErrInvalidBackup) {
				t.Fatalf("Restore with a delete of an unknown chunk: %v, want ErrInvalidBackup", err)
			}
		})
	}
}
