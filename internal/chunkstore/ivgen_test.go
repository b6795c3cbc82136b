package chunkstore

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"tdb/internal/sec"
)

// TestIVGenerationsSurviveReopen: generations are consumed faster than the
// commit sequence advances (checkpoints burn several per sequence step,
// failed commits burn one with no step at all), so ratcheting to commitSeq at
// open is not enough — the superblock's reservation mark must put the
// reopened counter above every generation ever handed out, for both a crash
// and a clean close.
func TestIVGenerationsSurviveReopen(t *testing.T) {
	for _, reopen := range []string{"crash", "close"} {
		t.Run(reopen, func(t *testing.T) {
			env := newTestEnv(t, "3des-sha1")
			env.cfg.DisableAutoClean = true
			env.cfg.DisableAutoCheckpoint = true
			s := env.open(t)

			// Burn generations well past the commit sequence: checkpoints
			// (node batch + payload per sequence step), failed commits (one
			// each, no step), and a nondurable commit whose step recovery
			// rolls back.
			cid := allocWrite(t, s, []byte("v0"))
			for i := 0; i < 3; i++ {
				writeChunk(t, s, cid, bytes.Repeat([]byte{byte(i)}, 256))
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
			}
			for i := 0; i < 5; i++ {
				bad := s.NewBatch()
				bad.Write(cid, []byte("doomed"))
				env.fs.SetWriteBudget(1)
				if err := s.Commit(bad, true); err == nil {
					t.Fatal("budgeted commit succeeded unexpectedly")
				}
				env.fs.SetWriteBudget(-1)
			}
			final := bytes.Repeat([]byte("F"), 300)
			writeChunk(t, s, cid, final)
			nd := s.NewBatch()
			nd.Write(cid, []byte("nondurable"))
			if err := s.Commit(nd, false); err != nil {
				t.Fatalf("nondurable Commit: %v", err)
			}

			used := s.ivGen.Load()
			if used <= s.commitSeq {
				t.Fatalf("test premise broken: ivGen %d not ahead of commitSeq %d", used, s.commitSeq)
			}

			if reopen == "crash" {
				env.mem.Crash()
			} else if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2 := env.open(t)
			defer s2.Close()

			if got := s2.ivGen.Load(); got < used {
				t.Fatalf("reopened ivGen = %d, below %d generations already used under this key", got, used)
			}
			// The reopened store keeps working: its first commit extends the
			// reservation with a superblock write before encrypting.
			writeChunk(t, s2, cid, []byte("after reopen"))
			if got, err := s2.Read(cid); err != nil || !bytes.Equal(got, []byte("after reopen")) {
				t.Fatalf("Read after reopen: %q, %v", got, err)
			}
			if err := s2.Verify(); err != nil {
				t.Fatalf("Verify after reopen: %v", err)
			}
		})
	}
}

// TestIVReservationExtensionIsDurable exhausts the in-memory reservation so
// a commit must extend it mid-run, then reopens and checks the extension was
// persisted before the generations were used.
func TestIVReservationExtensionIsDurable(t *testing.T) {
	env := newTestEnv(t, "aes-ctr-gmac")
	env.cfg.DisableAutoClean = true
	env.cfg.DisableAutoCheckpoint = true
	s := env.open(t)

	cid := allocWrite(t, s, []byte("v0"))
	// Jump the counter to just below the reserved limit; the next commits
	// cross it and must trigger an extension superblock write.
	s.ratchetIVGen(s.ivGenLimit.Load() - 1)
	for i := 0; i < 4; i++ {
		writeChunk(t, s, cid, bytes.Repeat([]byte{byte(i)}, 128))
	}
	if limit, gen := s.ivGenLimit.Load(), s.ivGen.Load(); limit < gen {
		t.Fatalf("reservation %d fell behind handed-out generation %d", limit, gen)
	}
	used := s.ivGen.Load()

	env.mem.Crash()
	s2 := env.open(t)
	defer s2.Close()
	if got := s2.ivGen.Load(); got < used {
		t.Fatalf("reopened ivGen = %d, below %d: extension was not durable", got, used)
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
}

// countingSuite wraps a Suite and counts Encrypt calls.
type countingSuite struct {
	sec.Suite
	encrypts atomic.Int64
}

func (c *countingSuite) Encrypt(plaintext []byte, iv uint64) ([]byte, error) {
	c.encrypts.Add(1)
	return c.Suite.Encrypt(plaintext, iv)
}

// TestCommitClosedStoreSkipsCrypto: committing against a closed store must
// fail fast with ErrClosed, before stage 1 encrypts and hashes the batch.
func TestCommitClosedStoreSkipsCrypto(t *testing.T) {
	env := newTestEnv(t, "null")
	cs := &countingSuite{Suite: env.suite}
	env.cfg.Suite = cs
	s := env.open(t)

	cid := allocWrite(t, s, []byte("payload"))
	if cs.encrypts.Load() == 0 {
		t.Fatal("counting suite saw no encryptions; wrapper not in effect")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	before := cs.encrypts.Load()
	b := s.NewBatch()
	for i := 0; i < 64; i++ {
		b.Write(cid, bytes.Repeat([]byte("x"), 512))
	}
	if err := s.Commit(b, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit on closed store: %v, want ErrClosed", err)
	}
	if got := cs.encrypts.Load(); got != before {
		t.Fatalf("commit on closed store ran %d encryptions; want none", got-before)
	}
}
