package chunkstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReadersCommittersSnapshots drives the store from many
// goroutines at once — committers on disjoint chunk sets, readers on the
// off-mutex path, snapshot scans, and Stats — and then audits the final
// state. Run under -race this exercises the commit pipeline's stage-1
// fan-out and the shared-lock read path beside it.
func TestConcurrentReadersCommittersSnapshots(t *testing.T) {
	for _, suiteName := range []string{"aes-sha256", "null"} {
		t.Run(suiteName, func(t *testing.T) {
			env := newTestEnv(t, suiteName)
			env.cfg.SegmentSize = 32 << 10
			s := env.open(t)
			defer s.Close()

			const (
				committers     = 4
				chunksPerOwner = 8
				rounds         = 30
				readers        = 4
			)
			// Each committer owns a disjoint set of chunks, so final values
			// are deterministic per chunk.
			ids := make([][]ChunkID, committers)
			for w := range ids {
				for c := 0; c < chunksPerOwner; c++ {
					cid, err := s.AllocateChunkID()
					if err != nil {
						t.Fatalf("AllocateChunkID: %v", err)
					}
					ids[w] = append(ids[w], cid)
					writeChunk(t, s, cid, payloadFor(w, c, 0))
				}
			}

			var wg sync.WaitGroup
			errs := make(chan error, committers+readers+2)
			for w := 0; w < committers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 1; r <= rounds; r++ {
						b := s.NewBatch()
						for c, cid := range ids[w] {
							b.Write(cid, payloadFor(w, c, r))
						}
						// Mostly nondurable commits with a durable one at the
						// end, like a transaction stream with a sync point.
						if err := s.Commit(b, r == rounds); err != nil {
							errs <- fmt.Errorf("committer %d round %d: %w", w, r, err)
							return
						}
					}
				}(w)
			}
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < rounds*committers; i++ {
						w := (g + i) % committers
						c := i % chunksPerOwner
						got, err := s.Read(ids[w][c])
						if err != nil {
							errs <- fmt.Errorf("reader %d: %w", g, err)
							return
						}
						// The value must be some round's payload for exactly
						// this (owner, chunk) pair — never torn, never another
						// chunk's data.
						if !validPayload(got, w, c, rounds) {
							errs <- fmt.Errorf("reader %d: chunk (%d,%d) holds foreign data %q", g, w, c, got[:16])
							return
						}
					}
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					snap, err := s.TakeSnapshot()
					if err != nil {
						errs <- fmt.Errorf("TakeSnapshot: %w", err)
						return
					}
					n := 0
					err = snap.ForEach(func(cid ChunkID, hash []byte, ciphertext []byte) error {
						n++
						return nil
					})
					snap.Close()
					if err != nil {
						errs <- fmt.Errorf("snapshot scan: %w", err)
						return
					}
					if n < committers*chunksPerOwner {
						errs <- fmt.Errorf("snapshot scan saw %d chunks, want >= %d", n, committers*chunksPerOwner)
						return
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					st := s.Stats()
					if st.Chunks < int64(committers*chunksPerOwner) {
						errs <- fmt.Errorf("Stats.Chunks = %d mid-run", st.Chunks)
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Quiesced: every chunk holds its final round's payload and the
			// whole database still validates.
			for w := range ids {
				for c, cid := range ids[w] {
					got, err := s.Read(cid)
					if err != nil || !bytes.Equal(got, payloadFor(w, c, rounds)) {
						t.Fatalf("final Read(%d): %v %v", cid, err, got)
					}
				}
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

func payloadFor(w, c, round int) []byte {
	return []byte(fmt.Sprintf("owner=%02d chunk=%02d round=%04d %s", w, c, round,
		bytes.Repeat([]byte{byte('a' + w)}, 64)))
}

func validPayload(got []byte, w, c, rounds int) bool {
	for r := 0; r <= rounds; r++ {
		if bytes.Equal(got, payloadFor(w, c, r)) {
			return true
		}
	}
	return false
}
