package platform

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// FaultStore wraps an UntrustedStore with a programmable fault injector. It
// models the failure matrix of a hostile or failing disk, and its modes
// compose freely:
//
//   - crash budget: after a configured number of mutating operations
//     (Create, WriteAt, Truncate, Sync, Remove), every subsequent operation
//     fails with ErrCrashed. Combined with MemStore.Crash it lets the
//     recovery tests stop the database at every possible write boundary.
//   - torn tail: the final write before the crash applies only half of its
//     bytes, modeling a torn sector write.
//   - transient errors: selected read/write operations fail with
//     ErrTransient a configured number of times, then succeed when the same
//     operation is retried — a bus timeout or recoverable media error.
//   - write rot: selected writes silently flip one bit of the stored bytes,
//     modeling firmware bit-rot on the write path. FlipBit corrupts bytes
//     already at rest.
//   - lost unsynced writes: with SetLoseUnsynced, the store behaves like a
//     write-back cache: CrashLoseUnsynced reverts every file to its content
//     as of its last Sync, discarding writes the device never acknowledged.
//   - failing syncs: with SetSyncFailures, every file Sync fails with
//     ErrTransient however often it is retried — a device whose cache flush
//     times out while reads and writes still work.
//
// The zero budget (-1) means "never crash".
//
// Beyond the deterministic every-Nth modes, the store supports
// probabilistic modes (SetTransientProb, SetRotProb) driven by an injected
// random source (SetRand): a chaos harness seeds the source once and the
// whole fault schedule — which operations fail, which bits rot and where —
// replays identically from that seed. Probabilistic modes never use
// package-level or global randomness.
type FaultStore struct {
	mu sync.Mutex
	// inner is the wrapped store.
	inner UntrustedStore
	// writesLeft counts down on every mutating operation; at zero the store
	// crashes.
	writesLeft int64
	crashed    bool
	// TornTail, when true, makes the final write before the crash apply only
	// half of its bytes, modeling a torn sector write.
	TornTail bool

	// Transient-error injection: every readEvery-th read (resp.
	// writeEvery-th mutating op) fails with ErrTransient readFailures
	// (resp. writeFailures) times before the retried operation succeeds.
	readEvery     int64
	readFailures  int
	writeEvery    int64
	writeFailures int
	// afflicted tracks, per operation key, how many more attempts of that
	// operation must still fail.
	afflicted map[string]int
	readSeq   int64
	writeSeq  int64

	// rotEvery, when >0, flips one bit in the payload of every rotEvery-th
	// WriteAt before it reaches the inner store.
	rotEvery int64
	rotSeq   int64

	// rand is the injected random source backing the probabilistic modes.
	// It is only ever called with mu held, so sources need not be
	// goroutine-safe; a seeded Splitmix64 gives reproducible schedules.
	rand FaultRand
	// readProb/writeProb/probFailures configure probabilistic transient
	// errors: each gated read (resp. mutating op) independently fails with
	// the given probability, then succeeds after probFailures retries.
	readProb     float64
	writeProb    float64
	probFailures int
	// rotProb makes each WriteAt rot with the given probability; the rotten
	// byte and bit are selected by the injected source.
	rotProb float64
	// faultFilter, when set, restricts the probabilistic modes to files it
	// approves. A harness uses it to model per-device failure processes:
	// the disk (segments, superblock) rots and times out, while the file
	// emulating the one-way counter stands in for separate hardware whose
	// increments are not idempotent and must not draw spurious failures.
	// Crash budgets and the deterministic every-Nth modes ignore the filter.
	faultFilter func(name string) bool

	// loseUnsynced arms the write-back cache model: the pre-mutation content
	// of every touched file is retained until that file's Sync, so
	// CrashLoseUnsynced can revert it.
	loseUnsynced bool
	// unsynced maps file name to the durable (last-synced) content of files
	// with unacknowledged writes.
	unsynced map[string][]byte
	// failSyncs makes every file Sync fail (see SetSyncFailures).
	failSyncs bool

	stats FaultStats
}

// FaultStats counts operations observed and faults injected.
type FaultStats struct {
	// Reads and Writes count ReadAt and mutating operations that reached
	// the injector (including ones that then failed).
	Reads  int64
	Writes int64
	// TransientErrors counts injected ErrTransient failures.
	TransientErrors int64
	// BitsFlipped counts bits corrupted by write rot and FlipBit.
	BitsFlipped int64
}

// NewFaultStore wraps inner with all fault injection disabled.
func NewFaultStore(inner UntrustedStore) *FaultStore {
	return &FaultStore{
		inner:      inner,
		writesLeft: -1,
		afflicted:  make(map[string]int),
		unsynced:   make(map[string][]byte),
	}
}

// SetWriteBudget arms the store to crash after n more mutating operations.
func (s *FaultStore) SetWriteBudget(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writesLeft = n
	s.crashed = false
}

// SetTransientReads makes every every-th ReadAt fail with ErrTransient;
// retrying the same read succeeds after failures failed attempts. every <= 0
// disables read-error injection.
func (s *FaultStore) SetTransientReads(every int64, failures int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readEvery = every
	s.readFailures = failures
	s.readSeq = 0
	// Reconfiguring models the device changing behavior: in-flight read
	// afflictions are forgotten.
	for key := range s.afflicted {
		if strings.HasPrefix(key, "read:") {
			delete(s.afflicted, key)
		}
	}
}

// SetTransientWrites makes every every-th mutating operation (WriteAt,
// Truncate, Sync) fail with ErrTransient; retrying the same operation
// succeeds after failures failed attempts. Injected failures happen before
// the operation touches the inner store and do not consume crash budget.
// every <= 0 disables write-error injection.
func (s *FaultStore) SetTransientWrites(every int64, failures int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeEvery = every
	s.writeFailures = failures
	s.writeSeq = 0
	for key := range s.afflicted {
		if !strings.HasPrefix(key, "read:") {
			delete(s.afflicted, key)
		}
	}
}

// SetWriteRot makes every every-th WriteAt silently flip one bit of its
// payload before storing it — the write "succeeds" but the stored bytes are
// rotten. every <= 0 disables rot.
func (s *FaultStore) SetWriteRot(every int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rotEvery = every
	s.rotSeq = 0
}

// FaultRand is a deterministic random source injected into a FaultStore's
// probabilistic modes. It is always invoked with the store mutex held, so
// implementations need not be goroutine-safe.
type FaultRand func() uint64

// Splitmix64 returns a FaultRand producing the splitmix64 sequence for
// seed. The same seed always yields the same fault schedule.
func Splitmix64(seed uint64) FaultRand {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// SetRand injects the random source backing the probabilistic modes
// (SetTransientProb, SetRotProb). nil reverts to the built-in fixed-seed
// source, so schedules are reproducible even when no harness seeds one.
func (s *FaultStore) SetRand(r FaultRand) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rand = r
}

// SetFaultFilter restricts the probabilistic modes to files keep approves
// (by store name). nil lifts the restriction. Crash budgets and the
// deterministic every-Nth modes are unaffected.
func (s *FaultStore) SetFaultFilter(keep func(name string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faultFilter = keep
}

// SetTransientProb makes each gated ReadAt fail with probability readP and
// each mutating operation fail with probability writeP (both ErrTransient);
// a failed operation succeeds after failures retried attempts. Probabilities
// <= 0 disable the respective injection. Draws come from the SetRand source.
func (s *FaultStore) SetTransientProb(readP, writeP float64, failures int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readProb = readP
	s.writeProb = writeP
	s.probFailures = failures
}

// SetRotProb makes each WriteAt silently flip one bit of its payload with
// probability p; the afflicted byte and bit are chosen by the SetRand
// source, so rot sites replay exactly from the seed. p <= 0 disables it.
func (s *FaultStore) SetRotProb(p float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rotProb = p
}

// randLocked returns the injected source, installing the fixed-seed default
// on first probabilistic use. Caller holds s.mu.
func (s *FaultStore) randLocked() FaultRand {
	if s.rand == nil {
		s.rand = Splitmix64(1)
	}
	return s.rand
}

// randFloatLocked draws a uniform [0,1) float. Caller holds s.mu.
func (s *FaultStore) randFloatLocked() float64 {
	return float64(s.randLocked()()>>11) / (1 << 53)
}

// filteredLocked reports whether the probabilistic modes apply to the named
// file. Caller holds s.mu.
func (s *FaultStore) filteredLocked(name string) bool {
	return s.faultFilter == nil || s.faultFilter(name)
}

// SetLoseUnsynced toggles the write-back cache model. While enabled, the
// store remembers each file's last-synced content so CrashLoseUnsynced can
// discard unacknowledged writes.
func (s *FaultStore) SetLoseUnsynced(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loseUnsynced = on
	if !on {
		s.unsynced = make(map[string][]byte)
	}
}

// SetSyncFailures opens (on) or closes a failing-sync window: while open,
// every file Sync the fault filter approves fails with ErrTransient before
// reaching the inner store, on every retry, so nothing written meanwhile is
// acknowledged durable. Reads and writes are unaffected.
func (s *FaultStore) SetSyncFailures(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failSyncs = on
}

// CrashLoseUnsynced simulates a power loss under the write-back cache
// model: every file with unacknowledged writes reverts to its last-synced
// content. The store is usable again afterwards (modeling a reboot): the
// crashed flag and write budget are cleared, transient and rot injection
// remain configured.
func (s *FaultStore) CrashLoseUnsynced() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.loseUnsynced {
		return fmt.Errorf("platform: CrashLoseUnsynced without SetLoseUnsynced")
	}
	for name, durable := range s.unsynced {
		f, err := s.inner.Open(name)
		if err != nil {
			return fmt.Errorf("platform: reverting %q: %w", name, err)
		}
		err = func() error {
			defer f.Close()
			if err := f.Truncate(0); err != nil {
				return err
			}
			if len(durable) > 0 {
				if _, err := f.WriteAt(durable, 0); err != nil {
					return err
				}
			}
			return f.Sync()
		}()
		if err != nil {
			return fmt.Errorf("platform: reverting %q: %w", name, err)
		}
	}
	s.unsynced = make(map[string][]byte)
	s.crashed = false
	s.writesLeft = -1
	return nil
}

// Crashed reports whether the injected crash has fired.
func (s *FaultStore) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// WriteOps returns how many mutating operations remain before the crash;
// negative means unarmed.
func (s *FaultStore) WriteOps() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writesLeft
}

// Stats returns a copy of the fault counters.
func (s *FaultStore) Stats() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// FlipBit flips the given bit of the byte at off in the named file,
// bypassing budget accounting and the write-back model. It models bit-rot
// of bytes at rest (or an attacker editing the store off-line).
func (s *FaultStore) FlipBit(name string, off int64, bit uint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.inner.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil && err != io.EOF {
		return fmt.Errorf("platform: FlipBit read %q@%d: %w", name, off, err)
	}
	b[0] ^= 1 << (bit % 8)
	if _, err := f.WriteAt(b[:], off); err != nil {
		return fmt.Errorf("platform: FlipBit write %q@%d: %w", name, off, err)
	}
	if err := f.Sync(); err != nil {
		return err
	}
	s.stats.BitsFlipped++
	return nil
}

// injectTransient decides whether the operation identified by key (on the
// named file) fails with an injected transient error this attempt, drawing
// from the deterministic every-Nth schedule and then the probabilistic one.
// Caller holds s.mu.
func (s *FaultStore) injectTransient(name, key string, seq *int64, every int64, failures int, prob float64) bool {
	if rem, ok := s.afflicted[key]; ok {
		if rem > 0 {
			s.afflicted[key] = rem - 1
			s.stats.TransientErrors++
			return true
		}
		// Fully drained: this retry succeeds and the key is forgotten.
		delete(s.afflicted, key)
		return false
	}
	if every > 0 && failures > 0 {
		*seq++
		if *seq%every == 0 {
			s.afflicted[key] = failures - 1
			s.stats.TransientErrors++
			return true
		}
	}
	if prob > 0 && s.probFailures > 0 && s.filteredLocked(name) && s.randFloatLocked() < prob {
		s.afflicted[key] = s.probFailures - 1
		s.stats.TransientErrors++
		return true
	}
	return false
}

// beforeWrite consumes one unit of write budget for the mutating operation
// identified by key on the named file. It returns (tear, err): tear is true
// when this is the final, torn write.
func (s *FaultStore) beforeWrite(name, key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return false, ErrCrashed
	}
	s.stats.Writes++
	if s.injectTransient(name, key, &s.writeSeq, s.writeEvery, s.writeFailures, s.writeProb) {
		return false, fmt.Errorf("platform: %s: %w", key, ErrTransient)
	}
	if s.writesLeft < 0 {
		return false, nil
	}
	if s.writesLeft == 0 {
		s.crashed = true
		return false, ErrCrashed
	}
	s.writesLeft--
	if s.writesLeft == 0 && s.TornTail {
		s.crashed = true
		return true, nil
	}
	return false, nil
}

// beforeRead gates a read operation: crashed stores fail, and the read may
// draw an injected transient error.
func (s *FaultStore) beforeRead(name, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	s.stats.Reads++
	if s.injectTransient(name, key, &s.readSeq, s.readEvery, s.readFailures, s.readProb) {
		return fmt.Errorf("platform: %s: %w", key, ErrTransient)
	}
	return nil
}

func (s *FaultStore) failIfCrashed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	return nil
}

// noteUnsynced snapshots the durable content of the named file before its
// first unacknowledged mutation. Caller holds s.mu.
func (s *FaultStore) noteUnsynced(name string, f File) error {
	if !s.loseUnsynced {
		return nil
	}
	if _, ok := s.unsynced[name]; ok {
		return nil
	}
	size, err := f.Size()
	if err != nil {
		return err
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			return err
		}
	}
	s.unsynced[name] = buf
	return nil
}

// noteSynced marks the named file's content acknowledged. Caller holds s.mu.
func (s *FaultStore) noteSynced(name string) {
	delete(s.unsynced, name)
}

// maybeRot flips one bit of p (in a copy) when this write is selected for
// rot, by the every-Nth schedule or the probabilistic one. Caller holds
// s.mu.
func (s *FaultStore) maybeRot(name string, p []byte) []byte {
	if len(p) == 0 {
		return p
	}
	if s.rotEvery > 0 {
		s.rotSeq++
		if s.rotSeq%s.rotEvery == 0 {
			rotten := append([]byte(nil), p...)
			// Flip a middle bit so both short and long payloads are affected
			// away from framing bytes often checked first.
			rotten[len(rotten)/2] ^= 0x10
			s.stats.BitsFlipped++
			return rotten
		}
	}
	if s.rotProb > 0 && s.filteredLocked(name) && s.randFloatLocked() < s.rotProb {
		rotten := append([]byte(nil), p...)
		r := s.randLocked()
		rotten[int(r()%uint64(len(rotten)))] ^= 1 << (r() % 8)
		s.stats.BitsFlipped++
		return rotten
	}
	return p
}

// Create implements UntrustedStore. File creation is a mutating operation:
// it consumes write budget, so crash sweeps cover the creation boundary.
func (s *FaultStore) Create(name string) (File, error) {
	// A "torn" create is meaningless; the tear flag only marks that the
	// budget is exhausted, which subsequent operations will observe.
	if _, err := s.beforeWrite(name, "create:"+name); err != nil {
		return nil, err
	}
	f, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.loseUnsynced {
		if _, ok := s.unsynced[name]; !ok {
			// A freshly created file's durable content is empty: after a
			// write-back crash it reverts to zero length (matching MemStore,
			// where creation is directory metadata and survives, but content
			// does not).
			s.unsynced[name] = nil
		}
	}
	s.mu.Unlock()
	return &faultFile{store: s, inner: f, name: name}, nil
}

// Open implements UntrustedStore.
func (s *FaultStore) Open(name string) (File, error) {
	if err := s.failIfCrashed(); err != nil {
		return nil, err
	}
	f, err := s.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{store: s, inner: f, name: name}, nil
}

// Remove implements UntrustedStore.
func (s *FaultStore) Remove(name string) error {
	if _, err := s.beforeWrite(name, "remove:"+name); err != nil {
		return err
	}
	s.mu.Lock()
	// Directory operations are treated as immediately durable (as in
	// MemStore); a removed file cannot be resurrected by a write-back crash.
	delete(s.unsynced, name)
	s.mu.Unlock()
	return s.inner.Remove(name)
}

// List implements UntrustedStore.
func (s *FaultStore) List() ([]string, error) {
	if err := s.failIfCrashed(); err != nil {
		return nil, err
	}
	return s.inner.List()
}

// Sync implements UntrustedStore.
func (s *FaultStore) Sync() error {
	if err := s.failIfCrashed(); err != nil {
		return err
	}
	return s.inner.Sync()
}

type faultFile struct {
	store *FaultStore
	inner File
	name  string
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.store.beforeRead(f.name, fmt.Sprintf("read:%s@%d", f.name, off)); err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	tear, err := f.store.beforeWrite(f.name, fmt.Sprintf("write:%s@%d", f.name, off))
	if err != nil {
		return 0, err
	}
	f.store.mu.Lock()
	if err := f.store.noteUnsynced(f.name, f.inner); err != nil {
		f.store.mu.Unlock()
		return 0, err
	}
	p = f.store.maybeRot(f.name, p)
	f.store.mu.Unlock()
	if tear && len(p) > 1 {
		half := len(p) / 2
		if _, err := f.inner.WriteAt(p[:half], off); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("platform: torn write: %w", ErrCrashed)
	}
	return f.inner.WriteAt(p, off)
}

func (f *faultFile) Size() (int64, error) {
	if err := f.store.failIfCrashed(); err != nil {
		return 0, err
	}
	return f.inner.Size()
}

func (f *faultFile) Truncate(size int64) error {
	if _, err := f.store.beforeWrite(f.name, fmt.Sprintf("truncate:%s@%d", f.name, size)); err != nil {
		return err
	}
	f.store.mu.Lock()
	if err := f.store.noteUnsynced(f.name, f.inner); err != nil {
		f.store.mu.Unlock()
		return err
	}
	f.store.mu.Unlock()
	return f.inner.Truncate(size)
}

func (f *faultFile) Sync() error {
	if _, err := f.store.beforeWrite(f.name, "sync:"+f.name); err != nil {
		return err
	}
	f.store.mu.Lock()
	fail := f.store.failSyncs && f.store.filteredLocked(f.name)
	f.store.mu.Unlock()
	if fail {
		return fmt.Errorf("platform: sync:%s: failing-sync window: %w", f.name, ErrTransient)
	}
	if err := f.inner.Sync(); err != nil {
		return err
	}
	f.store.mu.Lock()
	f.store.noteSynced(f.name)
	f.store.mu.Unlock()
	return nil
}

func (f *faultFile) Close() error { return f.inner.Close() }
