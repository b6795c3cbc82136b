package chaos

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"tdb"
	"tdb/internal/platform"
)

// Config configures one chaos run.
type Config struct {
	// Seed drives every random choice: the action mix, payloads, crash
	// budgets, and (via a forked stream) the FaultStore's probabilistic
	// fault schedule. The same seed replays a byte-identical trace.
	Seed uint64
	// Actions is the number of generator steps (default 500).
	Actions int
	// Dir, when set, roots the database in DirStore directories under it
	// (gen-0, gen-1 after a restore switch-over, …); empty runs on an
	// in-memory store. The trace never mentions the path, so runs in
	// different directories still replay identically.
	Dir string
	// Logf, when set, receives coarse progress lines (testing.T.Logf fits).
	Logf func(format string, args ...any)
}

// Result summarizes a completed (or failed) run.
type Result struct {
	// Trace holds one line per action. Rerunning the same seed and action
	// count must reproduce it byte for byte.
	Trace []string
	// Counters of notable events.
	Actions      int
	Commits      int
	NotDurable   int // durable commits that returned ErrNotDurable
	Crashes      int
	Recoveries   int
	Restarts     int
	Storms       int
	ReadStorms   int
	CommitStorms int
	Backups      int
	Restores     int
	TamperChecks int
	// FaultStats aggregates the injector's counters across every store
	// generation of the run.
	FaultStats platform.FaultStats
}

// power-loss flavors, fixed when the crash budget is armed.
const (
	// flavorLoseUnsynced models a write-back cache losing power: every
	// write the device never acknowledged (synced) is discarded.
	flavorLoseUnsynced = iota
	// flavorKeepAll models a write-through disk: everything that reached
	// the store before the crash point stands, including a torn tail.
	flavorKeepAll
)

const (
	chaosSecret = "chaos-oracle-secret-0123456789ab"
	groupSpace  = 8 // distinct Group values, so byGroup buckets stay busy
)

type harness struct {
	cfg  Config
	rng  *RNG
	sh   *Shadow
	db   *tdb.DB
	fs   *platform.FaultStore
	arch *platform.MemArchive
	opts tdb.Options

	gen    int // store generation; bumps on restore switch-over
	nextID int64
	action int
	trace  []string
	res    Result

	armed       bool
	armedAt     int
	armedFlavor int
	// syncFailing is true inside a failing-sync window (actSyncFailWindow).
	syncFailing bool

	haveBackup bool
	lastBackup State // archive-chain state as of the newest backup
}

// Run executes one seeded chaos run and returns its trace. A non-nil error
// is an invariant violation (or a harness-fatal condition) and embeds the
// one-line repro command plus the failing trace suffix.
func Run(cfg Config) (*Result, error) {
	if cfg.Actions <= 0 {
		cfg.Actions = 500
	}
	h := &harness{cfg: cfg, rng: NewRNG(cfg.Seed), sh: NewShadow()}

	reg := tdb.NewRegistry()
	reg.Register(objClass, func() tdb.Object { return &Obj{} })
	h.arch = platform.NewMemArchive()
	h.opts = tdb.Options{
		Secret:                []byte(chaosSecret),
		Suite:                 "aes-sha256",
		Registry:              reg,
		Archive:               h.arch,
		SegmentSize:           32 << 10,
		DisableAutoClean:      true, // cleaning and checkpointing are
		DisableAutoCheckpoint: true, // explicit actions in the mix
		Retry:                 tdb.RetryPolicy{Sleep: func(time.Duration) {}},
	}
	if err := h.freshStore(); err != nil {
		return h.result(), h.failure(err)
	}
	db, err := tdb.Open(h.opts)
	if err != nil {
		return h.result(), h.failure(fmt.Errorf("open fresh database: %w", err))
	}
	h.db = db

	for h.action = 1; h.action <= cfg.Actions; h.action++ {
		if err := h.step(); err != nil {
			return h.result(), h.failure(err)
		}
		if cfg.Logf != nil && h.action%100 == 0 {
			cfg.Logf("chaos: %d/%d actions, %d commits, %d crashes, %d storms",
				h.action, cfg.Actions, h.res.Commits, h.res.Crashes, h.res.Storms)
		}
	}

	// Epilogue: settle whatever is in flight, then prove the store whole.
	if h.armed {
		h.action = cfg.Actions + 1
		if err := h.powerLossRecover(); err != nil {
			return h.result(), h.failure(err)
		}
	}
	h.action = cfg.Actions + 2
	if err := h.actRestart(); err != nil {
		return h.result(), h.failure(err)
	}
	report, err := h.db.Scrub()
	if err != nil {
		return h.result(), h.failure(fmt.Errorf("final scrub: %w", err))
	}
	if !report.Clean() {
		return h.result(), h.failure(fmt.Errorf("final scrub dirty: bad=%v map=%v", report.BadIDs(), report.MapDamage))
	}
	if err := h.db.Close(); err != nil {
		return h.result(), h.failure(fmt.Errorf("final close: %w", err))
	}
	h.tracef("final scrub clean, closed")
	return h.result(), nil
}

func (h *harness) result() *Result {
	h.res.Trace = h.trace
	h.res.Actions = h.action
	if h.fs != nil {
		h.res.FaultStats = addStats(h.res.FaultStats, h.fs.Stats())
	}
	return &h.res
}

func addStats(a, b platform.FaultStats) platform.FaultStats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.TransientErrors += b.TransientErrors
	a.BitsFlipped += b.BitsFlipped
	return a
}

// freshStore builds a new fault-wrapped store generation and installs it in
// h.fs / h.opts. The injector gets its own RNG stream forked off the
// harness seed, a background transient-error process on reads and writes,
// and a filter keeping probabilistic faults off the emulated one-way
// counter (separate hardware whose non-idempotent increments are never
// retried; it still takes full crash-budget and offline-tamper coverage).
func (h *harness) freshStore() error {
	if h.fs != nil {
		h.res.FaultStats = addStats(h.res.FaultStats, h.fs.Stats())
	}
	var inner platform.UntrustedStore
	if h.cfg.Dir == "" {
		inner = platform.NewMemStore()
	} else {
		ds, err := platform.NewDirStore(filepath.Join(h.cfg.Dir, fmt.Sprintf("gen-%d", h.gen)))
		if err != nil {
			return fmt.Errorf("create store generation %d: %w", h.gen, err)
		}
		inner = ds
	}
	fs := platform.NewFaultStore(inner)
	fs.SetRand(platform.Splitmix64(h.rng.Fork().Uint64()))
	fs.SetFaultFilter(func(name string) bool { return name != "counter" })
	fs.SetTransientProb(0.01, 0.01, 1)
	fs.SetLoseUnsynced(true)
	h.fs = fs
	h.opts.Store = fs
	h.opts.Counter = nil // default FileCounter inside the new store
	return nil
}

func (h *harness) tracef(format string, args ...any) {
	h.trace = append(h.trace, fmt.Sprintf("%04d %s", h.action, fmt.Sprintf(format, args...)))
}

// failure wraps an invariant violation with the repro command and the
// failing trace suffix.
func (h *harness) failure(err error) error {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: action %d: %v\n", h.action, err)
	fmt.Fprintf(&b, "repro: make chaos CHAOS_SEED=%d CHAOS_ACTIONS=%d\n", h.cfg.Seed, h.cfg.Actions)
	tail := h.trace
	if len(tail) > 15 {
		tail = tail[len(tail)-15:]
	}
	b.WriteString("trace tail:")
	for _, l := range tail {
		b.WriteString("\n  ")
		b.WriteString(l)
	}
	return fmt.Errorf("%s", b.String())
}

// step runs one generator action. While a crash budget is armed the mix is
// restricted to actions that are safe to lose mid-flight (no backups, no
// scrub/repair, no offline tampering); once the budget fires — or the
// budget outlives its window — the power loss lands and recovery is
// verified.
func (h *harness) step() error {
	if h.armed {
		var err error
		switch pick := h.rng.Intn(100); {
		case pick < 55:
			err = h.actCommit()
		case pick < 65:
			err = h.actAbort()
		case pick < 75:
			err = h.actScan()
		case pick < 85:
			err = h.actCheckpoint()
		case pick < 95:
			err = h.actClean()
		default:
			err = h.actDropCollection()
		}
		if err != nil {
			return err
		}
		if h.fs.Crashed() || h.action-h.armedAt >= 10 {
			return h.powerLossRecover()
		}
		return nil
	}
	switch pick := h.rng.Intn(100); {
	case pick < 3:
		return h.actCommitStorm()
	case pick < 26:
		return h.actCommit()
	case pick < 31:
		return h.actAbort()
	case pick < 40:
		return h.actScan()
	case pick < 46:
		return h.actSnapshotIsolation()
	case pick < 52:
		return h.actBackup()
	case pick < 55:
		return h.actRestoreCheck()
	case pick < 60:
		return h.actCheckpoint()
	case pick < 64:
		return h.actClean()
	case pick < 67:
		return h.actScrub()
	case pick < 70:
		return h.actFullCheck()
	case pick < 73:
		return h.actRotStorm()
	case pick < 76:
		return h.actOfflineTamper()
	case pick < 79:
		return h.actRestart()
	case pick < 81:
		return h.actDropCollection()
	case pick < 85:
		return h.actReadStorm()
	case pick < 89:
		return h.actSyncFailWindow()
	default:
		return h.actArmCrash()
	}
}

// actArmCrash arms the fault store's crash budget: after 1..60 more
// mutating store operations every operation fails, optionally tearing the
// final write in half. The power-loss flavor is fixed now so the eventual
// recovery is deterministic.
func (h *harness) actArmCrash() error {
	budget := int64(1 + h.rng.Intn(60))
	torn := h.rng.Chance(0.4)
	h.armedFlavor = flavorLoseUnsynced
	if h.rng.Chance(0.5) {
		h.armedFlavor = flavorKeepAll
	}
	h.fs.TornTail = torn
	h.fs.SetWriteBudget(budget)
	h.armed = true
	h.armedAt = h.action
	h.tracef("arm-crash budget=%d torn=%v flavor=%d", budget, torn, h.armedFlavor)
	return nil
}

// powerLossRecover abandons the live handle (the process "dies"), applies
// the armed power-loss flavor, reopens, and verifies that recovery
// surfaced a legal prefix of the commit log.
func (h *harness) powerLossRecover() error {
	fired := h.fs.Crashed()
	h.res.Crashes++
	h.db = nil // no Close: a crashed process never gets one
	switch h.armedFlavor {
	case flavorLoseUnsynced:
		if err := h.fs.CrashLoseUnsynced(); err != nil {
			return fmt.Errorf("power loss (lose-unsynced): %w", err)
		}
	default:
		// Keep-all: what reached the store stands. Cycling the write-back
		// model forgets the revert snapshots (those bytes are now "on
		// disk") and the budget reset clears the crashed flag.
		h.fs.SetLoseUnsynced(false)
		h.fs.SetWriteBudget(-1)
		h.fs.SetLoseUnsynced(true)
	}
	h.fs.TornTail = false
	h.armed = false

	db, err := tdb.Open(h.opts)
	if err != nil {
		return fmt.Errorf("reopen after power loss (fired=%v flavor=%d, pending=%d commits): %w",
			fired, h.armedFlavor, h.sh.Pending(), err)
	}
	h.db = db
	h.res.Recoveries++

	st, err := scanState(h.db)
	if err != nil {
		return fmt.Errorf("post-recovery scan: %w", err)
	}
	cands := h.sh.RecoveryCandidates()
	got := st.Digest()
	settled := -1
	for i, c := range cands {
		if c.Digest() == got {
			settled = i
			break
		}
	}
	if settled < 0 {
		maxC := cands[len(cands)-1]
		return fmt.Errorf("recovery state matches no legal commit prefix (fired=%v flavor=%d, %d candidates, %d pending commits); vs newest: %s",
			fired, h.armedFlavor, len(cands), h.sh.Pending(), maxC.Diff(st))
	}
	h.sh.Collapse(cands[settled])
	h.tracef("power-loss fired=%v flavor=%d recovered prefix=%d/%d", fired, h.armedFlavor, settled, len(cands)-1)
	return h.checkFull()
}
