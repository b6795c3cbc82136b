package chunkstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestAuditedWorkloadUnderCachePressure repeats the audited random workload
// with a tiny map-node cache so nodes are constantly evicted and reloaded,
// plus heavy cleaning. This is the regime the paper-scale benchmark runs
// in.
func TestAuditedWorkloadUnderCachePressure(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			env := newTestEnv(t, "3des-sha1")
			env.cfg.SegmentSize = 8 << 10
			env.cfg.MaxUtilization = 0.6
			env.cfg.Fanout = 8
			env.cfg.CacheBytes = 4 << 10 // brutal pressure
			env.cfg.CheckpointBytes = 64 << 10
			s := env.open(t)
			defer func() { s.Close() }()

			var ids []ChunkID
			for i := 0; i < 400; i++ {
				cid, err := s.AllocateChunkID()
				if err != nil {
					t.Fatalf("alloc: %v", err)
				}
				ids = append(ids, cid)
				b := s.NewBatch()
				val := make([]byte, 50+rng.Intn(200))
				rng.Read(val)
				b.Write(cid, val)
				if err := s.Commit(b, true); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			for step := 0; step < 1500; step++ {
				b := s.NewBatch()
				for k := 0; k < 4; k++ {
					val := make([]byte, 50+rng.Intn(200))
					rng.Read(val)
					b.Write(ids[rng.Intn(len(ids))], val)
				}
				if err := s.Commit(b, true); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if step%100 == 0 {
					auditConsistency(t, s, fmt.Sprintf("step %d", step))
				}
			}
			auditConsistency(t, s, "final")
			if err := s.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}
