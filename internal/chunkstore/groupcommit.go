package chunkstore

import (
	"fmt"
	"sync"
	"time"
)

// The durable-commit coordinator: every durable commit is a round.
//
// A durable Commit's stage 2 appends its commit record and leaves the
// expensive harden — the log sync plus the one-way counter advance — to a
// shared coordinator. The first commit waiting on an unhardened record
// becomes the round's leader, lingers only while announced companions are
// still inbound, then hardens the log once; everyone whose record the sync
// covered completes with that single sync and single counter advance. A
// lone committer leads a round of one: nothing is inbound, so it snapshots,
// syncs and advances at once, at the cost of the sync it owed anyway.
//
// Durability ordering survives coalescing because hardening is not
// per-record: a round flushes every unsynced segment in append order, so
// one sync makes the round's records — and every earlier nondurable commit
// record — durable together, exactly the §3.2.2 guarantee. The one-way
// counter survives it because a round advances the counter at most once and
// all of the round's durable records are stamped with the same post-advance
// value (counterVal+1): crash recovery sees the newest durable record carry
// either the hardware counter value (harden completed) or hardware+1 (crash
// between sync and increment, the pre-existing catch-up window). Replay
// detection therefore distinguishes rounds, not individual commits: rolling
// the store back to a round boundary is equivalent to having crashed there,
// and a durable commit is only acknowledged after both the sync and the
// advance.
//
// The round's fsync runs OFF the store mutex. The leader snapshots the
// dirty segments under s.mu (gcSnapshotRound), syncs them with the mutex
// released (segmentSet.syncTasks) so companion commits keep appending, then
// retakes s.mu to publish the outcome (gcFinishRound). Two subtleties:
//
//   - A segment may grow, be rewound, or be retired while its fsync is in
//     flight. Each segment carries a modification generation; the finish
//     step only marks a segment clean if its generation is unchanged, and
//     the cleaner defers closing a retired segment's file handle until the
//     in-flight sync lets go (segment.syncing/doomed).
//
//   - Records appended DURING the round's sync are stamped counterVal+1 but
//     are not covered by it, so a later round may find the log already
//     synced past every stamp it owes. The store therefore tracks stampCtr,
//     the stamp on the newest durable record, and a round advances the
//     hardware counter only while stampCtr exceeds it (advanceCounterLocked)
//     — never twice for the same stamp, which would push the counter past
//     every stored record and read as replay tampering at recovery.
//
// A round that fails leaves its records applied and pending: every commit it
// stranded gets ErrNotDurable, and the next round, checkpoint or Close
// retries the harden (see Store.Commit for the contract).

const (
	// groupCommitWindow bounds a round leader's batching window. The window
	// stays open only while announced durable commits are still inbound
	// (pickled or encrypting but not yet appended) — it closes the moment
	// nothing more is imminently arriving, so a lone committer never waits.
	groupCommitWindow = 2 * time.Millisecond
	// groupCommitMaxOps closes the batching window early once this many
	// commits are waiting on the round, bounding per-commit latency under
	// sustained load.
	groupCommitMaxOps = 64
)

// groupCommitter coordinates group-commit rounds. Its mutex is leaf-level:
// it is taken with the store mutex held (noteHardenedLocked) and on its
// own, but never the other way around, so the lock order is always
// Store.mu → groupCommitter.mu.
type groupCommitter struct {
	mu   sync.Mutex
	cond *sync.Cond
	// hardened is the highest commit sequence known durable.
	hardened uint64
	// leader is true while some commit is running a round.
	leader bool
	// round counts completed rounds; followers wait for it to change.
	round uint64
	// lastErr is the outcome of the most recent completed round. It is not
	// sticky: the next round may succeed.
	lastErr error
	// waiters counts commits currently waiting to be hardened (the leader
	// included); leaders use it to end their batching window early.
	waiters int
	// inbound counts durable commits announced (AnnounceDurable) but not yet
	// appended: commits whose records are imminent but would be missed by a
	// round snapshotting now. A lingering leader waits only while inbound is
	// nonzero — waiting for a fixed quorum instead would stall the round for
	// a committer that went off to do post-commit maintenance.
	inbound int
	// lingerGen numbers linger windows so a stale watchdog timer cannot
	// expire a later window.
	lingerGen uint64
	// lingerExpired is set by the current linger window's watchdog.
	lingerExpired bool
}

func newGroupCommitter() *groupCommitter {
	gc := &groupCommitter{}
	gc.cond = sync.NewCond(&gc.mu)
	return gc
}

// addWaiter adjusts the waiter count. Arrivals wake a lingering leader so it
// can cut its batching window short the moment groupCommitMaxOps commits are
// queued.
func (gc *groupCommitter) addWaiter(d int) {
	gc.mu.Lock()
	gc.waiters += d
	if d > 0 {
		gc.cond.Broadcast()
	}
	gc.mu.Unlock()
}

// addInbound adjusts the announced-but-not-yet-appended count, clamped at
// zero so an unannounced direct-stage committer cannot drive it negative.
// Draining to zero wakes a lingering leader: nothing more is arriving.
func (gc *groupCommitter) addInbound(d int) {
	gc.mu.Lock()
	gc.inbound += d
	if gc.inbound < 0 {
		gc.inbound = 0
	}
	if gc.inbound == 0 {
		gc.cond.Broadcast()
	}
	gc.mu.Unlock()
}

// linger is the leader's batching window: it blocks while more durable
// commits are imminently arriving (inbound > 0), until groupCommitMaxOps
// commits are already waiting, or until the window times out. sync.Cond has
// no timed wait, so the timeout is a watchdog goroutine that runs sleep —
// Retry.Sleep, the injectable clock seam: tests substitute a blocking or
// no-op sleep for determinism — once and then wakes the leader; lingerGen
// keeps a watchdog from a previous window from expiring this one.
func (gc *groupCommitter) linger(sleep func(time.Duration)) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.waiters >= groupCommitMaxOps || gc.inbound == 0 {
		return
	}
	gen := gc.lingerGen
	go func() {
		sleep(groupCommitWindow)
		gc.expireLinger(gen)
	}()
	for gc.waiters < groupCommitMaxOps && gc.inbound > 0 && !gc.lingerExpired {
		gc.cond.Wait()
	}
	gc.lingerExpired = false
	gc.lingerGen++
}

// expireLinger is the watchdog's half of a linger window: it times out
// window gen, unless that window already closed.
func (gc *groupCommitter) expireLinger(gen uint64) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.lingerGen == gen {
		gc.lingerExpired = true
		gc.cond.Broadcast()
	}
}

// claim outcomes.
const (
	gcCovered = iota
	gcLeader
	gcFailedRound
)

// claim blocks until seq is hardened (gcCovered), the caller should lead a
// round (gcLeader), or a round that should have covered seq failed
// (gcFailedRound, with the round's error).
func (gc *groupCommitter) claim(seq uint64) (int, error) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	for {
		if gc.hardened >= seq {
			return gcCovered, nil
		}
		if !gc.leader {
			gc.leader = true
			return gcLeader, nil
		}
		round := gc.round
		for gc.round == round && gc.hardened < seq {
			gc.cond.Wait()
		}
		if gc.hardened >= seq {
			return gcCovered, nil
		}
		if gc.round != round && gc.lastErr != nil {
			return gcFailedRound, gc.lastErr
		}
		// The round completed without error yet did not cover seq: seq's
		// record was appended after the leader's sync. Loop and lead the
		// next round (or join it).
	}
}

// finishRound publishes a round's outcome and wakes the followers.
func (gc *groupCommitter) finishRound(err error) {
	gc.mu.Lock()
	gc.leader = false
	gc.round++
	gc.lastErr = err
	gc.cond.Broadcast()
	gc.mu.Unlock()
}

// awaitHarden blocks until commit record seq is durable, leading a harden
// round when none is running. A round that fails hands the same error —
// ErrNotDurable wrapping the cause — to its leader and to every commit it
// stranded.
func (s *Store) awaitHarden(seq uint64) error {
	gc := s.gc
	gc.addWaiter(1)
	defer gc.addWaiter(-1)
	for {
		st, err := gc.claim(seq)
		switch st {
		case gcCovered:
			return nil
		case gcFailedRound:
			return err
		}
		hErr := s.gcHarden()
		if hErr != nil {
			hErr = fmt.Errorf("%w: %w", ErrNotDurable, hErr)
		}
		gc.finishRound(hErr)
		if hErr != nil {
			return hErr
		}
	}
}

// gcHarden is the leader's half of a round: linger while announced
// companions are inbound, then harden the log with the fsync itself running
// off the store mutex so companions can keep appending into the next round.
func (s *Store) gcHarden() error {
	s.gc.linger(s.cfg.Retry.Sleep)
	tasks, seq, done, err := s.gcSnapshotRound()
	if done {
		return err
	}
	return s.gcFinishRound(tasks, seq, s.segs.syncTasks(tasks))
}

// gcSnapshotRound starts a round under the store mutex: it claims the
// pending harden and snapshots the dirty segments for an off-mutex sync.
// done reports that no off-mutex work is needed (nothing pending, or the
// store raced with Close).
func (s *Store) gcSnapshotRound() (tasks []syncTask, seq uint64, done bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		// Close hardens pending commits before closing; records still
		// pending here lost the race with a close whose harden failed.
		if s.groupPending {
			return nil, 0, true, ErrClosed
		}
		return nil, 0, true, nil
	}
	if !s.groupPending {
		s.noteHardenedLocked(s.commitSeq)
		return nil, 0, true, nil
	}
	// Pay any deferred checkpoint-superblock fsync as part of this round's
	// barrier. It runs under the mutex (rare — at most once per checkpoint)
	// so no new slot write can race it; on failure groupPending stays set
	// and a later round retries, like a failed write-behind flush below.
	if err := s.syncSuperIfDirtyLocked(); err != nil {
		return nil, 0, true, err
	}
	tasks, err = s.segs.syncSnapshotLocked()
	if err != nil {
		// The write-behind flush failed before anything was snapshotted:
		// groupPending stays set so a later round (or Close) retries the
		// flush — the buffer is intact.
		return nil, 0, true, err
	}
	s.groupPending = false
	return tasks, s.commitSeq, false, nil
}

// gcFinishRound publishes an off-mutex sync's outcome: it releases the
// snapshot, advances the one-way counter if the round owes an advance, and
// marks the round's records hardened. On failure the pending harden is
// re-armed so a later round retries.
func (s *Store) gcFinishRound(tasks []syncTask, seq uint64, syncErr error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segs.finishSyncLocked(tasks, syncErr == nil)
	if syncErr != nil {
		s.groupPending = true
		return syncErr
	}
	if err := s.advanceCounterLocked(); err != nil {
		s.groupPending = true
		return err
	}
	s.noteHardenedLocked(seq)
	return nil
}

// advanceCounterLocked advances the one-way counter if the newest durable
// commit record is stamped ahead of it. If the increment fails after a
// successful sync, the log holds durable records stamped counterVal+1
// against a hardware counter of counterVal — the same window as a crash
// between sync and increment, which recovery already absorbs by catching
// the counter up. Caller holds s.mu.
func (s *Store) advanceCounterLocked() error {
	if !s.cfg.UseCounter || s.stampCtr <= s.counterVal {
		return nil
	}
	if _, err := s.cfg.Counter.Increment(); err != nil {
		return fmt.Errorf("chunkstore: incrementing one-way counter: %w", err)
	}
	s.counterVal++
	return nil
}

// hardenLocked makes every appended commit record durable: one log sync
// covers all of them (segments sync in append order), then one counter
// advance matches the counterVal+1 stamp the pending durable records carry.
// It is the harden of the two operations that already hold s.mu exclusively
// for their whole duration and seal with a commit record of their own —
// checkpointLocked and Close; user commits harden through rounds, which keep
// the fsync off the mutex. Caller holds s.mu.
func (s *Store) hardenLocked() error {
	// The harden barrier also pays any superblock fsync deferred by an
	// earlier checkpoint (one barrier event instead of two). Order does not
	// matter for safety — the dirty slot points at a checkpoint record
	// hardened before the slot was written — but syncing it first keeps a
	// failure from acknowledging the commit.
	if err := s.syncSuperIfDirtyLocked(); err != nil {
		return err
	}
	if err := s.segs.syncDirty(); err != nil {
		return err
	}
	if err := s.advanceCounterLocked(); err != nil {
		return err
	}
	s.groupPending = false
	s.noteHardenedLocked(s.commitSeq)
	return nil
}

// noteHardenedLocked records that every commit record up to and including
// seq is durable and wakes group-commit waiters. Caller holds s.mu.
func (s *Store) noteHardenedLocked(seq uint64) {
	gc := s.gc
	gc.mu.Lock()
	if seq > gc.hardened {
		gc.hardened = seq
		gc.cond.Broadcast()
	}
	gc.mu.Unlock()
}
