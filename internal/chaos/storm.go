package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"tdb"
	"tdb/internal/chunkstore"
	"tdb/internal/platform"
)

// stormMember is one committer of a commit storm: a sequence of durable
// commits, each rewriting the one chunk no other member touches. The storm
// drives the chunk store directly: the harden coordinator is what it is
// after, and members on disjoint chunks put every durable commit in the
// coordinator's rounds with no object-layer lock between them.
type stormMember struct {
	cid  chunkstore.ChunkID
	vals [][]byte // version t's payload, each distinct
	// acked is how many of its commits were acknowledged durable: the index
	// of the last Commit that returned success, plus one (a durable commit
	// hardens everything appended before it). attempted is how many were
	// issued; the ones past acked were refused durability or cut off by the
	// crash, and may or may not have landed.
	acked, attempted int
	err              error
}

// run issues the member's commits in order and stops at the first one the
// device refused.
func (m *stormMember) run(cs *chunkstore.Store, crashed func() bool, syncFailing bool) {
	for t, val := range m.vals {
		b := cs.NewBatch()
		b.Write(m.cid, val)
		m.attempted = t + 1
		err := cs.Commit(b, true)
		switch {
		case err == nil && !syncFailing, errors.Is(err, chunkstore.ErrMaintenance):
			m.acked = t + 1
		case errors.Is(err, chunkstore.ErrNotDurable) && syncFailing:
			// Applied, visible, not acknowledged durable: the member's next
			// commit rides behind it.
		case crashed():
			return
		default:
			m.err = fmt.Errorf("commit-storm chunk %d commit %d: durable commit returned %v (failing syncs: %v, device healthy)", m.cid, t, err, syncFailing)
			return
		}
	}
}

// settle checks the member's recovered chunk: some version of its sequence,
// at least as new as what it was acknowledged and no newer than what it
// attempted.
func (m *stormMember) settle(cs *chunkstore.Store) error {
	p := 0
	got, err := cs.Read(m.cid)
	switch {
	case errors.Is(err, chunkstore.ErrNotAllocated), errors.Is(err, chunkstore.ErrNotWritten):
	case err != nil:
		return fmt.Errorf("invariant: commit-storm chunk %d unreadable after recovery: %w", m.cid, err)
	default:
		for p = len(m.vals); p > 0 && !bytes.Equal(got, m.vals[p-1]); p-- {
		}
		if p == 0 {
			return fmt.Errorf("invariant: commit-storm chunk %d recovered %d bytes that are no version it was ever given", m.cid, len(got))
		}
	}
	if p < m.acked || p > m.attempted {
		return fmt.Errorf("invariant: commit-storm chunk %d recovered at version %d; %d commits were acknowledged durable, %d attempted", m.cid, p, m.acked, m.attempted)
	}
	return nil
}

// forkStore copies every file of the live store, byte for byte as it
// stands on the device, into a fresh in-memory store: the image a power
// loss that kept every write would leave. Read faults are off for the copy
// (the read-storm recipe), so the live store's fault schedule never notices.
func (h *harness) forkStore() (*platform.MemStore, error) {
	h.fs.SetTransientProb(0, 0.01, 1)
	defer h.fs.SetTransientProb(0.01, 0.01, 1)
	files, names, err := h.storeFiles()
	if err != nil {
		return nil, err
	}
	mem := platform.NewMemStore()
	for _, name := range names {
		dst, err := mem.Create(name)
		if err != nil {
			return nil, err
		}
		if _, err := dst.WriteAt(files[name], 0); err != nil {
			return nil, err
		}
		if err := dst.Sync(); err != nil {
			return nil, err
		}
		dst.Close()
	}
	return mem, nil
}

// actCommitStorm lets the oracle see overlapped harden rounds, which the
// sequenced trace — one commit at a time, every round a round of one — never
// produces. It forks the live store (forkStore), reopens the fork — itself a
// keep-everything crash recovery, held to the shadow's legal prefixes — and
// storms it: K concurrent committers, each a stormMember, racing either an
// armed crash budget (the fork's counter is a file in the store, so the
// budget lands between a round's log sync and its counter advance too) or a
// failing-sync window. The storm is recorded as a set: after the power loss
// every member must have recovered a version covering everything it was
// acknowledged, unacknowledged commits may or may not have landed, and the
// object-level state must not have moved at all. The fork is then discarded.
//
// Determinism, the read-storm recipe: every random choice is drawn on the
// main thread before the committers start; the fork injects no
// probabilistic faults; the live store is only read; and the trace records
// the storm's shape, never its schedule-dependent outcome.
func (h *harness) actCommitStorm() error {
	members := make([]*stormMember, 2+h.rng.Intn(3))
	commits := 0
	for i := range members {
		m := &stormMember{}
		for n, t := 1+h.rng.Intn(4), 0; t < n; t++ {
			m.vals = append(m.vals, append([]byte{byte(i), byte(t)}, h.randPad()...))
		}
		commits += len(m.vals)
		members[i] = m
	}
	warm := &stormMember{vals: [][]byte{[]byte("warm")}}
	seal := &stormMember{vals: [][]byte{[]byte("seal")}}
	syncFailing := h.rng.Chance(0.3)
	budget, torn, flavor := int64(1+h.rng.Intn(40)), h.rng.Chance(0.4), flavorLoseUnsynced
	if !syncFailing && h.rng.Chance(0.5) {
		flavor = flavorKeepAll
	}
	h.tracef("commit-storm members=%d commits=%d sync-failing=%v budget=%d torn=%v flavor=%d", len(members), commits, syncFailing, budget, torn, flavor)

	mem, err := h.forkStore()
	if err != nil {
		return fmt.Errorf("commit-storm fork: %w", err)
	}
	fs := platform.NewFaultStore(mem)
	fs.SetLoseUnsynced(true)
	opts := h.opts
	opts.Store, opts.Counter, opts.Archive = fs, nil, platform.NewMemArchive()
	db, err := tdb.Open(opts)
	if err != nil {
		return fmt.Errorf("invariant: commit-storm: fork of the healthy live store failed recovery: %w", err)
	}
	want, err := scanState(db)
	if err != nil {
		return fmt.Errorf("commit-storm fork scan: %w", err)
	}
	legal := false
	for _, c := range h.sh.RecoveryCandidates() {
		legal = legal || c.Digest() == want.Digest()
	}
	if !legal {
		return fmt.Errorf("invariant: commit-storm: fork recovered a state that is no legal prefix of the commit log; vs current: %s", h.sh.Cur().Diff(want))
	}
	cs := db.Chunks()
	all := append([]*stormMember{warm, seal}, members...)
	for _, m := range all {
		if m.cid, err = cs.AllocateChunkID(); err != nil {
			return fmt.Errorf("commit-storm allocating a chunk id on the fork: %w", err)
		}
	}

	// One sequenced durable commit first: it pays the reopened store's IV
	// reservation write, which a failing sync would refuse before stage 2.
	if warm.run(cs, fs.Crashed, false); warm.err != nil || warm.acked != 1 {
		return fmt.Errorf("commit-storm warm-up commit on the fork: acked=%d: %v", warm.acked, warm.err)
	}
	if syncFailing {
		fs.SetSyncFailures(true)
	} else {
		fs.TornTail = torn
		fs.SetWriteBudget(budget)
	}
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m *stormMember) {
			defer wg.Done()
			m.run(cs, fs.Crashed, syncFailing)
		}(m)
	}
	wg.Wait()
	for _, m := range members {
		if m.err != nil {
			return m.err
		}
	}
	if syncFailing {
		// Everything the window left unhardened rides on the next durable
		// commit: after it, the whole storm must survive.
		fs.SetSyncFailures(false)
		if seal.run(cs, fs.Crashed, false); seal.err != nil || seal.acked != 1 {
			return fmt.Errorf("commit-storm sealing commit after the failing-sync window: acked=%d: %v", seal.acked, seal.err)
		}
		for _, m := range members {
			m.acked = m.attempted
		}
	}

	// Power loss; the storming handle is abandoned like any crashed process.
	if flavor == flavorLoseUnsynced {
		if err := fs.CrashLoseUnsynced(); err != nil {
			return fmt.Errorf("commit-storm power loss: %w", err)
		}
	} else {
		fs.SetLoseUnsynced(false)
		fs.SetWriteBudget(-1)
	}
	fs.TornTail = false
	db, err = tdb.Open(opts)
	if err != nil {
		return fmt.Errorf("invariant: commit-storm: reopen after power loss (sync-failing=%v flavor=%d): %w", syncFailing, flavor, err)
	}
	for _, m := range all {
		if err := m.settle(db.Chunks()); err != nil {
			return err
		}
	}
	got, err := scanState(db)
	if err != nil {
		return fmt.Errorf("commit-storm post-recovery scan: %w", err)
	}
	if got.Digest() != want.Digest() {
		return fmt.Errorf("invariant: commit-storm recovery moved the object-level state: %s", want.Diff(got))
	}
	if err := db.Verify(); err != nil {
		return fmt.Errorf("invariant: commit-storm: Verify after recovery: %w", err)
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("commit-storm closing the fork: %w", err)
	}
	h.res.CommitStorms++
	return nil
}
