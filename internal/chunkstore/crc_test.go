package chunkstore

import (
	"bytes"
	"errors"
	"testing"
)

// corruptCRC inverts the four CRC bytes of the record at loc, and nothing
// else, durably.
func corruptCRC(t *testing.T, env *testEnv, loc Location) {
	t.Helper()
	for off := int64(loc.Off) + 5; off < int64(loc.Off)+recordHeaderSize; off++ {
		if err := env.mem.Corrupt(segmentName(loc.Seg), off); err != nil {
			t.Fatalf("Corrupt: %v", err)
		}
	}
}

// TestCRCRotReadsCommittedValueButEndsTheLog inverts only the CRC bytes of
// a chunk record. A read from the location the map names does not check
// the CRC — the Merkle leaf covers every byte it covers — so a point read,
// a batch, a visiting batch, Verify and Scrub all see the committed value,
// before and after a reopen. Recovery's log scan does check it: a record
// in the residual log whose CRC fails is the end of the log, so the commit
// that wrote it and every later one are not replayed — an open under the
// null suite, which keeps no counter, recovers the state before them, and
// under a keyed suite the one-way counter is past the shortened log's last
// commit, which is tampering.
func TestCRCRotReadsCommittedValueButEndsTheLog(t *testing.T) {
	for _, suite := range []string{"aes-gcm", "3des-sha1", "null"} {
		t.Run(suite, func(t *testing.T) {
			env := newTestEnv(t, suite)
			env.cfg.SegmentSize = 1 << 20
			s := env.open(t)
			cids := writeBatch(t, s, 8, true, kibPayload)
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			const victim = 3
			corruptCRC(t, env, chunkLoc(t, s, cids[victim]).loc)
			check := func(s *Store, when string) {
				t.Helper()
				if got, err := s.Read(cids[victim]); err != nil || !bytes.Equal(got, kibPayload(victim)) {
					t.Fatalf("%s: Read = %d bytes, %v", when, len(got), err)
				}
				for i, r := range s.ReadBatch(cids) {
					if r.Err != nil || !bytes.Equal(r.Data, kibPayload(i)) {
						t.Fatalf("%s: ReadBatch[%d] = %d bytes, %v", when, i, len(r.Data), r.Err)
					}
				}
				s.VisitBatch(cids, func(i int, data []byte, err error) {
					if err != nil || !bytes.Equal(data, kibPayload(i)) {
						t.Fatalf("%s: VisitBatch[%d] = %d bytes, %v", when, i, len(data), err)
					}
				})
				if err := s.Verify(); err != nil {
					t.Fatalf("%s: Verify: %v", when, err)
				}
				if report, err := s.Scrub(); err != nil || !report.Clean() {
					t.Fatalf("%s: Scrub = %+v, %v", when, report, err)
				}
			}
			check(s, "open")
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s = env.open(t)
			check(s, "reopened")

			// The same damage to a record in the residual log ends the log
			// there: the crash loses the two durable commits from it on.
			other := cids[victim+1]
			writeChunk(t, s, cids[victim], []byte("v1"))
			writeChunk(t, s, other, []byte("w1"))
			wantRead(t, s, other, "w1")
			corruptCRC(t, env, chunkLoc(t, s, cids[victim]).loc)
			wantRead(t, s, cids[victim], "v1")
			env.mem.Crash()
			if suite != "null" {
				if _, err := Open(env.cfg); !errors.Is(err, ErrTampered) {
					t.Fatalf("Open over a log cut before its last durable commits = %v, want ErrTampered", err)
				}
				return
			}
			s2 := env.open(t)
			defer s2.Close()
			wantRead(t, s2, cids[victim], string(kibPayload(victim)))
			wantRead(t, s2, other, string(kibPayload(victim+1)))
			if err := s2.Verify(); err != nil {
				t.Fatalf("Verify after recovery: %v", err)
			}
		})
	}
}
