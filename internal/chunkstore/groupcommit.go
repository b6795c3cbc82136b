package chunkstore

import (
	"fmt"
	"sync"
	"time"
)

// The durable-commit coordinator: every durable commit is a round, and
// rounds run through a two-stage pipeline.
//
// A durable Commit's stage 2 appends its commit record and leaves the
// expensive harden — the log sync, then the one-way counter advance
// (§3.2.2) — to a shared coordinator. The first commit waiting on an
// unsynced record leads a round: it lingers only while announced companions
// are still inbound, then hardens once for everyone whose record its
// snapshot covered. A lone committer leads a round of one: nothing is
// inbound, so it snapshots, syncs and advances at once, at the cost of the
// sync and the advance it owed anyway.
//
// Stage 1 is the log sync, one round at a time and OFF the store mutex: the
// leader snapshots the dirty segments under s.mu (gcSnapshotRound), syncs
// them with the mutex released (segmentSet.syncTasks) so companions keep
// appending, and retakes s.mu only to publish which segments came clean. A
// segment may grow, be rewound or be retired while its fsync is in flight:
// each carries a modification generation, a segment is marked clean only if
// its generation is unchanged, and the cleaner defers closing a retired
// segment's handle until the sync lets go (segment.syncing/doomed). One sync
// flushes every unsynced segment in append order, so it makes the round's
// records and every earlier nondurable commit durable together.
//
// Stage 2 is the counter advance, also off the store mutex and serialised
// only against other advances (groupCommitter.advMu). A leader takes the
// stage-2 turn and only then lets go of stage 1, so while round N's
// Increment is in flight round N+1 is already syncing — a commit that just
// missed round N's snapshot waits for one more sync and one more advance,
// never for a whole foreign round and then its own. The file-emulated
// counter makes an advance cost a write and an fsync, which the paper's
// hardware counter would not; that is a substitution cost, so it is
// overlapped rather than removed. Stage 2 never takes s.mu: it publishes
// through groupCommitter.mu and the atomic counterVal only, which is what
// lets a checkpoint or Close (hardenLocked, holding s.mu) wait for the turn.
//
// Stamps are per round. A snapshot seals its round at the newest durable
// record's stamp, and every durable record appended behind the snapshot is
// stamped one higher, so two rounds never share a stamp. A round is
// acknowledged only once the hardware counter has reached its stamp, after
// its sync — the §3.2.2 order, per round. Rolling the disk back to an
// acknowledged round therefore leaves the log BEHIND the counter once any
// later round has been acknowledged, which recovery reports as ErrTampered;
// a log AHEAD of the counter is a crash between the stages, never a replay,
// and recovery catches the counter up one increment at a time. The lead is
// bounded: a snapshot seals a new stamp only while fewer than hardenDepth
// sealed stamps await the counter, so with one more for the open stamp no
// record is ever stamped beyond counterVal+hardenDepth+1. (Replay detection
// distinguishes rounds, not the commits inside one: a round's records share
// its stamp, so the counter cannot tell a log cut inside the newest round
// from that round having been smaller.)
//
// A round that fails — in either stage — leaves its records applied and
// pending and hands every commit it covered ErrNotDurable; the next round,
// checkpoint or Close syncs again and advances through every stamp still
// owed (see Store.Commit for the contract).

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
	// hardenDepth is the pipeline's depth: how many sealed rounds may await
	// the counter at once — one in each stage.
	hardenDepth = 2
)

// groupCommitter coordinates harden rounds. Its mutex is leaf-level: it is
// taken with the store mutex or the stage-2 turn held and on its own, but
// nothing is acquired under it, so the lock order is always
// Store.mu → advMu → groupCommitter.mu.
type groupCommitter struct {
	mu   sync.Mutex
	cond *sync.Cond
	// hardened is the highest commit sequence acknowledged durable: its
	// round's sync is done and the counter has reached its round's stamp.
	hardened uint64
	// synced is the highest commit sequence whose round has finished stage
	// 1. A commit in (hardened, synced] awaits only the counter: it neither
	// leads a round nor is acknowledged yet.
	synced uint64
	// syncing is true while a leader holds stage 1 (linger, snapshot, sync).
	syncing bool
	// failedSeq and failedErr record the newest failed round: every commit
	// up to failedSeq that is not hardened gets failedErr. A failure is not
	// sticky — later commits lead new rounds, which harden these too.
	failedSeq uint64
	failedErr error
	// advMu is the stage-2 turn: it serialises counter advances against
	// each other. Its holders never take the store mutex.
	advMu sync.Mutex
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

// claim blocks until seq is acknowledged durable (false, nil), a round that
// covered seq failed (false, that round's error), or the caller should lead
// a round (true): stage 1 is free and no finished sync covers seq.
func (gc *groupCommitter) claim(seq uint64) (lead bool, err error) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	for {
		switch {
		case gc.hardened >= seq:
			return false, nil
		case gc.failedSeq >= seq:
			return false, gc.failedErr
		case gc.synced < seq && !gc.syncing:
			gc.syncing = true
			return true, nil
		}
		gc.cond.Wait()
	}
}

// endSync releases stage 1. synced is the newest commit the round's sync
// covered (zero if it covered nothing): its waiters now await the counter.
func (gc *groupCommitter) endSync(synced uint64) {
	gc.mu.Lock()
	gc.syncing = false
	if synced > gc.synced {
		gc.synced = synced
	}
	gc.cond.Broadcast()
	gc.mu.Unlock()
}

// fail publishes a failed round: every unhardened commit up to seq gets the
// returned error, ErrNotDurable wrapping the cause.
func (gc *groupCommitter) fail(seq uint64, cause error) error {
	err := fmt.Errorf("%w: %w", ErrNotDurable, cause)
	gc.mu.Lock()
	if seq >= gc.failedSeq {
		gc.failedSeq, gc.failedErr = seq, err
	}
	gc.cond.Broadcast()
	gc.mu.Unlock()
	return err
}

// noteHardened acknowledges every commit record up to and including seq.
func (gc *groupCommitter) noteHardened(seq uint64) {
	gc.mu.Lock()
	if seq > gc.hardened {
		gc.hardened = seq
		gc.cond.Broadcast()
	}
	gc.mu.Unlock()
}

// awaitHarden blocks until commit record seq is acknowledged durable,
// leading a round when stage 1 is free and no finished sync covers seq. A
// round that fails hands the same error — ErrNotDurable wrapping the cause
// — to its leader and to every commit it covered.
func (s *Store) awaitHarden(seq uint64) error {
	gc := s.gc
	gc.addWaiter(1)
	defer gc.addWaiter(-1)
	for {
		lead, err := gc.claim(seq)
		if !lead {
			return err
		}
		if err := s.gcHarden(); err != nil {
			return err
		}
	}
}

// gcHarden leads one round through both stages. Stage 1: linger while
// announced companions are inbound, snapshot, sync off the store mutex.
// Stage 2: advance the counter to the round's stamp off the store mutex,
// then acknowledge. The stage-2 turn is taken BEFORE stage 1 is released,
// so the next round starts syncing the moment this one starts advancing and
// at most hardenDepth rounds are ever in flight.
func (s *Store) gcHarden() error {
	gc := s.gc
	gc.linger(s.cfg.Retry.Sleep)
	tasks, seq, stamp, owed, err := s.gcSnapshotRound()
	if !owed {
		gc.endSync(0)
		return nil
	}
	if err == nil {
		err = s.segs.syncTasks(tasks)
		s.mu.Lock()
		s.segs.finishSyncLocked(tasks, err == nil)
		s.mu.Unlock()
	}
	if err != nil {
		gc.endSync(0)
		return gc.fail(seq, err)
	}
	gc.advMu.Lock()
	defer gc.advMu.Unlock()
	gc.endSync(seq)
	if err := s.advanceCounter(stamp); err != nil {
		return gc.fail(seq, err)
	}
	gc.noteHardened(seq)
	return nil
}

// gcSnapshotRound opens a round under the store mutex: it seals the round's
// stamp and snapshots the dirty segments for the off-mutex sync. The round
// acknowledges commits up to seq once the counter reaches stamp; owed is
// false when there is nothing to harden. On error seq is the newest
// appended commit: the failure strands all of them.
func (s *Store) gcSnapshotRound() (tasks []syncTask, seq, stamp uint64, owed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hardenOwedLocked() {
		return nil, 0, 0, false, nil
	}
	if s.closed.Load() {
		// Close hardens pending commits before closing; records still
		// pending here lost the race with a close whose harden failed.
		return nil, s.commitSeq, 0, true, ErrClosed
	}
	// Pay any deferred checkpoint-superblock fsync as part of this round's
	// barrier. It runs under the mutex (rare — at most once per checkpoint)
	// so no new slot write can race it. On failure, as on a failed
	// write-behind flush below, the harden stays owed and a later round
	// retries — the buffer is intact.
	if err := s.syncSuperIfDirtyLocked(); err != nil {
		return nil, s.commitSeq, 0, true, err
	}
	if tasks, err = s.segs.syncSnapshotLocked(); err != nil {
		return nil, s.commitSeq, 0, true, err
	}
	// Seal: records appended from here on are stamped one higher. With
	// hardenDepth sealed stamps still awaiting the counter (earlier rounds
	// failed) the round seals nothing new and retries the newest seal.
	if s.sealedCtr < s.counterVal.Load()+hardenDepth {
		s.sealedCtr, s.sealedSeq = s.stampCtr, s.commitSeq
	}
	return tasks, s.sealedSeq, s.sealedCtr, true, nil
}

// hardenOwedLocked reports whether a durable commit record is appended that
// no round, checkpoint or Close has acknowledged yet. Caller holds s.mu.
func (s *Store) hardenOwedLocked() bool {
	gc := s.gc
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return s.durableSeq > gc.hardened
}

// advanceCounter is stage 2: it advances the one-way counter until it
// reaches stamp, one increment per stamp still owed — its own round's and
// any an earlier failed advance left behind. It must run only after the log
// up to stamp is durable. A failure leaves durable records stamped ahead of
// the hardware counter, the same window as a crash between the stages,
// which recovery absorbs by catching the counter up. Caller holds the
// stage-2 turn (or is Open, single-threaded).
//
//tdblint:serial the stage-2 turn exists to serialise counter advances; it is held across the increment by design and never with Store.mu on a commit path, so no committer or reader waits behind the counter's I/O
func (s *Store) advanceCounter(stamp uint64) error {
	for s.counterVal.Load() < stamp {
		if _, err := s.cfg.Counter.Increment(); err != nil {
			return fmt.Errorf("chunkstore: incrementing one-way counter: %w", err)
		}
		s.counterVal.Add(1)
	}
	return nil
}

// hardenLocked is the harden of the two operations that hold s.mu
// exclusively for their whole duration and seal with a commit record of
// their own — checkpointLocked and Close: one log sync covers every appended
// record (segments sync in append order), then the counter advances to the
// newest stamp through the same stage-2 turn the rounds use. Waiting for
// the turn under s.mu is safe because its holders never take s.mu, and it
// drains an in-flight advance before Close lets go of the counter. The
// harden also pays any superblock fsync deferred by an earlier checkpoint
// (one barrier event instead of two); syncing it first keeps a failure from
// acknowledging the commit. Caller holds s.mu.
func (s *Store) hardenLocked() error {
	s.gc.advMu.Lock()
	defer s.gc.advMu.Unlock()
	if err := s.syncSuperIfDirtyLocked(); err != nil {
		return err
	}
	if err := s.segs.syncDirty(); err != nil {
		return err
	}
	if err := s.advanceCounter(s.stampCtr); err != nil {
		return err
	}
	s.sealedCtr, s.sealedSeq = s.stampCtr, s.commitSeq
	s.gc.noteHardened(s.commitSeq)
	return nil
}
