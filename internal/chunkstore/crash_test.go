package chunkstore

import (
	"bytes"
	"fmt"
	"testing"
)

// crashModel tracks, per slot, which values may legitimately be observed
// after a crash:
//
//   - the value of the last *acknowledged* durable commit must be readable
//     unless superseded by an eligible later value,
//   - values from commits whose durable promotion was attempted but not
//     acknowledged MAY survive (the crash can land after the log sync),
//   - values from nondurable commits with no subsequent durable attempt
//     must NOT survive (paper §3.2.2).
type crashModel struct {
	acked map[int]string
	// eligible holds values that may (but need not) be observed.
	eligible map[int]map[string]bool
	// pendingND holds nondurably committed values awaiting a durable
	// attempt; they are NOT yet eligible to survive.
	pendingND map[int]string
}

func newCrashModel() *crashModel {
	return &crashModel{
		acked:     map[int]string{},
		eligible:  map[int]map[string]bool{},
		pendingND: map[int]string{},
	}
}

func (m *crashModel) allow(slot int, v string) {
	if m.eligible[slot] == nil {
		m.eligible[slot] = map[string]bool{}
	}
	m.eligible[slot][v] = true
}

// beginDurableAttempt marks everything nondurably committed so far, plus
// the staged values of the attempt itself, as eligible to survive.
func (m *crashModel) beginDurableAttempt(staged map[int]string) {
	for slot, v := range m.pendingND {
		m.allow(slot, v)
	}
	for slot, v := range staged {
		m.allow(slot, v)
	}
}

// ackDurable records a successful durable commit of staged (plus all prior
// nondurable state).
func (m *crashModel) ackDurable(staged map[int]string) {
	for slot, v := range m.pendingND {
		m.acked[slot] = v
	}
	m.pendingND = map[int]string{}
	for slot, v := range staged {
		m.acked[slot] = v
	}
}

// commitNondurable records a successful nondurable commit.
func (m *crashModel) commitNondurable(staged map[int]string) {
	for slot, v := range staged {
		m.pendingND[slot] = v
	}
}

// check validates recovered state: each slot must read its acked value or
// an eligible newer one.
func (m *crashModel) check(t *testing.T, budget int64, s *Store, ids map[int]ChunkID) {
	t.Helper()
	for slot, cid := range ids {
		got, err := s.Read(cid)
		want, hasAcked := m.acked[slot]
		if err != nil {
			if !hasAcked {
				continue // never durably written; absence is fine
			}
			t.Fatalf("budget %d: Read slot %d (chunk %d): %v", budget, slot, cid, err)
		}
		if hasAcked && string(got) == want {
			continue
		}
		if m.eligible[slot][string(got)] {
			continue
		}
		t.Fatalf("budget %d: slot %d reads %.14q..., want %.14q... or an in-flight durable value",
			budget, slot, got, want)
	}
}

// TestCrashAtEveryWriteBoundary is the central recovery test: it runs a
// scripted workload, arming the fault injector to crash after every
// possible number of write operations, and after each crash verifies that
// recovery restores a legitimate durable state.
func TestCrashAtEveryWriteBoundary(t *testing.T) {
	for _, suiteName := range []string{"3des-sha1", "aes-gcm", "aes-ctr-gmac", "aes-ctr-sha256", "null"} {
		for _, torn := range []bool{false, true} {
			name := suiteName
			if torn {
				name += "/torn"
			}
			t.Run(name, func(t *testing.T) {
				const dryBudget = int64(1) << 40
				used := dryBudget - runCrashWorkload(t, suiteName, torn, dryBudget)
				// Write-behind coalesces appends, so the workload crosses few
				// write boundaries — every one gets a crash.
				if used < 10 {
					t.Fatalf("workload too small to be interesting: %d write ops", used)
				}
				step := int64(1)
				if used > 200 {
					step = used / 200
				}
				for budget := int64(1); budget <= used; budget += step {
					runCrashWorkload(t, suiteName, torn, budget)
				}
			})
		}
	}
}

// runCrashWorkload executes a scripted mix of durable and nondurable
// commits against a store that crashes after `budget` write operations,
// then recovers and validates against the crash model. It returns the fault
// store's remaining budget.
func runCrashWorkload(t *testing.T, suiteName string, torn bool, budget int64) int64 {
	t.Helper()
	env := newTestEnv(t, suiteName)
	env.fs.TornTail = torn
	env.cfg.SegmentSize = 4 << 10
	env.cfg.CheckpointBytes = 8 << 10 // force frequent checkpoints

	const slots = 8
	model := newCrashModel()
	ids := make(map[int]ChunkID)

	s, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("initial Open: %v", err)
	}
	env.fs.SetWriteBudget(budget)

	payload := func(round, slot int) string {
		return fmt.Sprintf("r%03d-s%d-%s", round, slot, bytes.Repeat([]byte("p"), 64))
	}
	crashed := false
	for round := 0; round < 12 && !crashed; round++ {
		b := s.NewBatch()
		staged := map[int]string{}
		for slot := 0; slot < slots; slot++ {
			if (round+slot)%3 != 0 {
				continue
			}
			cid, ok := ids[slot]
			if !ok {
				cid, err = s.AllocateChunkID()
				if err != nil {
					crashed = true
					break
				}
				ids[slot] = cid
			}
			v := payload(round, slot)
			b.Write(cid, []byte(v))
			staged[slot] = v
		}
		if crashed {
			break
		}
		durable := round%2 == 0
		if durable {
			model.beginDurableAttempt(staged)
		}
		if err := s.Commit(b, durable); err != nil {
			crashed = true
			break
		}
		if durable {
			model.ackDurable(staged)
		} else {
			model.commitNondurable(staged)
		}
	}
	if !crashed {
		// Close performs a durable checkpoint: pending nondurable state may
		// (and on success will) survive.
		model.beginDurableAttempt(nil)
		if err := s.Close(); err == nil {
			model.ackDurable(nil)
		}
	}
	remaining := env.fs.WriteOps()

	// Power loss, then recovery.
	env.mem.Crash()
	env.fs.SetWriteBudget(-1)
	s2, err := Open(env.cfg)
	if err != nil {
		t.Fatalf("budget %d: recovery failed: %v", budget, err)
	}
	defer s2.Close()
	model.check(t, budget, s2, ids)
	if err := s2.Verify(); err != nil {
		t.Fatalf("budget %d: Verify after recovery: %v", budget, err)
	}
	return remaining
}

// TestRecoveryAfterCrashDuringCheckpoint targets the window between a
// checkpoint's log sync and its superblock publish: recovery must fall back
// to the previous checkpoint and still reproduce the same state (the
// residual replay applies the orphaned map-node records as location
// updates).
func TestRecoveryAfterCrashDuringCheckpoint(t *testing.T) {
	for budget := int64(1); ; budget++ {
		env := newTestEnv(t, "3des-sha1")
		env.cfg.SegmentSize = 4 << 10
		env.cfg.DisableAutoCheckpoint = true
		s := env.open(t)
		var ids []ChunkID
		for i := 0; i < 30; i++ {
			ids = append(ids, allocWrite(t, s, []byte(fmt.Sprintf("val-%d", i))))
		}
		env.fs.SetWriteBudget(budget)
		err := s.Checkpoint()
		done := err == nil && env.fs.WriteOps() > 0
		env.mem.Crash()
		env.fs.SetWriteBudget(-1)
		s2, err := Open(env.cfg)
		if err != nil {
			t.Fatalf("budget %d: recovery after checkpoint crash: %v", budget, err)
		}
		for i, cid := range ids {
			got, err := s2.Read(cid)
			if err != nil || string(got) != fmt.Sprintf("val-%d", i) {
				t.Fatalf("budget %d: Read(%d): %q, %v", budget, cid, got, err)
			}
		}
		if err := s2.Verify(); err != nil {
			t.Fatalf("budget %d: Verify: %v", budget, err)
		}
		s2.Close()
		if done {
			return
		}
		if budget > 500 {
			t.Fatal("checkpoint never completed within sweep")
		}
	}
}
