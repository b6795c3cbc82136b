package chunkstore

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// mod8Suite wraps a Suite and sums len(plaintext) % 8 over its encryptions
// and seals.
type mod8Suite struct {
	sec.Suite
	sum atomic.Int64
}

func (m *mod8Suite) Encrypt(plaintext []byte, iv uint64) ([]byte, error) {
	m.sum.Add(int64(len(plaintext) % 8))
	return m.Suite.Encrypt(plaintext, iv)
}

func (m *mod8Suite) Seal(plaintext []byte, iv uint64) ([]byte, []byte, error) {
	m.sum.Add(int64(len(plaintext) % 8))
	return m.Suite.Seal(plaintext, iv)
}

// TestSuiteByteAccounting runs one fixed sequence — durable and nondurable
// commits of assorted payload sizes, one checkpoint, one clean, Close — on a
// MeterStore under 3des-sha1 and under aes-gcm. Both suites digest,
// hash and MAC to 20 bytes, so every plaintext (payloads, map nodes, checkpoint) and
// every unencrypted record is the same size under both; only ciphertexts
// differ, 8 + n + (8 − n%8) bytes against n + 16. The device must therefore
// see exactly Σ n%8 more bytes under aes-gcm — summed over every encrypted
// payload written, which includes the data records the cleaner copies
// verbatim to the log tail — in the same segments, and each step the same
// number of writes and syncs. The Σ n%8 drift may move a segment roll to a
// neighbouring step, and a roll changes how its step and the next sync
// split into device operations, so steps from a roll in either run up to a
// step where both runs synced are not compared.
func TestSuiteByteAccounting(t *testing.T) {
	// step is one operation's device I/O and whether it rolled a segment.
	type step struct {
		io     platform.IOCounts
		rolled bool
	}
	type run struct {
		io    platform.IOCounts
		mod8  int64
		steps []step
		segs  uint64
	}
	measure := func(name string) run {
		suite, err := sec.NewSuite(name, []byte("suite-byte-accounting-secret-012"))
		if err != nil {
			t.Fatalf("NewSuite: %v", err)
		}
		counted := &mod8Suite{Suite: suite}
		meter := platform.NewMeterStore(platform.NewMemStore())
		s, err := Open(Config{
			Store:                 meter,
			Counter:               platform.NewMemCounter(),
			Suite:                 counted,
			SegmentSize:           8 << 10,
			DisableAutoClean:      true,
			DisableAutoCheckpoint: true,
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var steps []step
		segsCreated := func() uint64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return s.segs.next
		}
		do := func(what string, op func() error) {
			io, segs := meter.Stats().Snapshot(), segsCreated()
			if err := op(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			steps = append(steps, step{io: meter.Stats().Snapshot().Sub(io), rolled: segsCreated() != segs})
		}
		lastLen := make(map[ChunkID]int)
		ids := make([]ChunkID, 12)
		for i := range ids {
			if ids[i], err = s.AllocateChunkID(); err != nil {
				t.Fatalf("AllocateChunkID: %v", err)
			}
		}
		for round := 0; round < 30; round++ {
			b := s.NewBatch()
			for j := 0; j < 1+round%3; j++ {
				size := 37*round + 11*j + round%8
				cid := ids[(round+5*j)%len(ids)]
				b.Write(cid, bytes.Repeat([]byte{byte(round)}, size))
				lastLen[cid] = size
			}
			do(fmt.Sprintf("Commit %d", round), func() error { return s.Commit(b, round%2 == 0) })
			if round == 14 {
				do("Checkpoint", s.Checkpoint)
			}
		}
		locs := func() map[ChunkID]Location {
			s.mu.Lock()
			defer s.mu.Unlock()
			out := make(map[ChunkID]Location)
			for _, cid := range ids {
				e, err := s.lm.get(cid)
				if err != nil {
					t.Fatalf("lm.get(%d): %v", cid, err)
				}
				out[cid] = e.loc
			}
			return out
		}
		before := locs()
		do("Clean", s.Clean)
		var copied int64
		for cid, loc := range locs() {
			if loc != before[cid] {
				copied += int64(lastLen[cid] % 8)
			}
		}
		if s.Stats().Cleanings == 0 {
			t.Fatal("test premise broken: Clean evacuated no segment")
		}
		segs := segsCreated()
		do("Close", s.Close)
		return run{io: meter.Stats().Snapshot(), mod8: counted.sum.Load() + copied, steps: steps, segs: segs}
	}
	des, ctr := measure("3des-sha1"), measure("aes-gcm")
	if des.mod8 != ctr.mod8 {
		t.Fatalf("the suites encrypted different plaintexts: Σ n%%8 = %d vs %d", des.mod8, ctr.mod8)
	}
	if got := ctr.io.BytesWritten - des.io.BytesWritten; got != ctr.mod8 {
		t.Errorf("aes-gcm wrote %d bytes more than 3des-sha1 (%d vs %d), want exactly Σ n%%8 = %d",
			got, ctr.io.BytesWritten, des.io.BytesWritten, ctr.mod8)
	}
	if des.segs != ctr.segs {
		t.Errorf("the suites used %d and %d segments", des.segs, ctr.segs)
	}
	compared, unsettled := 0, false
	for i, d := range des.steps {
		c := ctr.steps[i]
		unsettled = unsettled || d.rolled || c.rolled
		if !unsettled {
			compared++
			if d.io.WriteOps != c.io.WriteOps || d.io.SyncOps != c.io.SyncOps {
				t.Errorf("step %d: write/sync ops differ: 3des-sha1 %d/%d, aes-gcm %d/%d",
					i, d.io.WriteOps, d.io.SyncOps, c.io.WriteOps, c.io.SyncOps)
			}
		}
		if d.io.SyncOps > 0 && c.io.SyncOps > 0 {
			unsettled = false
		}
	}
	if compared < len(des.steps)/2 {
		t.Errorf("test premise: only %d of %d steps compared", compared, len(des.steps))
	}
	t.Logf("3des-sha1 %+v, aes-gcm %+v, Σ n%%8 = %d, %d of %d steps compared",
		des.io, ctr.io, ctr.mod8, compared, len(des.steps))
}
